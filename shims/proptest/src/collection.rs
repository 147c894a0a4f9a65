//! Collection strategies (`proptest::collection` subset).

use crate::strategy::Strategy;
use crate::TestRng;
use std::ops::Range;

/// Accepted length specifications for [`vec()`].
#[derive(Clone, Debug)]
pub struct SizeRange {
    min: usize,
    max_exclusive: usize,
}

impl From<usize> for SizeRange {
    fn from(len: usize) -> Self {
        SizeRange {
            min: len,
            max_exclusive: len + 1,
        }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "vec size range must be non-empty");
        SizeRange {
            min: r.start,
            max_exclusive: r.end,
        }
    }
}

/// Strategy producing `Vec`s whose elements come from an inner strategy.
#[derive(Clone, Debug)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S>
where
    S::Value: Clone,
{
    type Value = Vec<S::Value>;
    fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let span = (self.size.max_exclusive - self.size.min) as u64;
        let len = self.size.min + rng.below(span.max(1)) as usize;
        (0..len).map(|_| self.element.sample(rng)).collect()
    }
    fn shrink(&self, value: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
        let mut out = Vec::new();
        // Structural shrinks first (fewer elements), respecting the
        // minimum length, then per-element shrinks of the survivors.
        if value.len() > self.size.min {
            let half = self.size.min.max(value.len() / 2);
            if half < value.len() {
                out.push(value[..half].to_vec());
            }
            out.push(value[..value.len() - 1].to_vec());
        }
        for (i, v) in value.iter().enumerate() {
            for cand in self.element.shrink(v) {
                let mut next = value.clone();
                next[i] = cand;
                out.push(next);
            }
        }
        out
    }
}

/// Generate `Vec`s with elements from `element` and lengths from `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}
