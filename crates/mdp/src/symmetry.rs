//! Symmetry reduction: canonicalizing states to per-orbit representatives
//! so exploration builds the *quotient* MDP.
//!
//! A [`Symmetry`] is a finite group action on the state space of an
//! implicit model whose step relation is *equivariant*: for every group
//! element `g`, the choices of `g·s` are exactly the `g`-images of the
//! choices of `s` (as a multiset of cost-labelled distributions). Under
//! that hypothesis the value of any min/max objective is constant on
//! orbits, so it suffices to explore one representative per orbit —
//! [`Symmetry::canon`] — and redirect every successor to its
//! representative. The quotient model has up to `order()`-fold fewer
//! states and bit-identical values on representatives (see DESIGN §13 for
//! the soundness argument and the equality granularity per analysis).
//!
//! The only instance shipped here is [`RingRotation`], the cyclic rotation
//! group of a ring of `n` identical processes — the symmetry of the
//! Lehmann–Rabin dining-philosophers ring. States opt in by implementing
//! [`RingState`]; canonical form is the lexicographically least rotation,
//! which the ring-rotation property tests in `pa-lehmann-rabin` pin as
//! value-preserving.

/// A group action on states, exposed through its canonicalization map.
///
/// Implementations must guarantee:
///
/// * **Idempotence** — `canon(canon(s)) == canon(s)`.
/// * **Orbit invariance** — `canon(g·s) == canon(s)` for every group
///   element `g` (for [`RingRotation`]: every rotation amount).
///
/// Both laws are property-tested for the shipped instances.
pub trait Symmetry<S>: Send + Sync {
    /// The canonical representative of the orbit of `s`.
    fn canon(&self, s: &S) -> S;

    /// The order of the acting group; each orbit has between 1 and this
    /// many states, so this bounds the achievable reduction factor.
    fn order(&self) -> usize;
}

/// States acted on by the cyclic rotation group of a ring.
///
/// `rotated(k)` relabels the ring so that new process `i` is old process
/// `i + k` (indices mod `n`), together with whatever per-process payload
/// the state carries (resources, obligations, budgets, fault status). The
/// `Ord` bound supplies the total order that picks the lexicographically
/// least rotation as the orbit representative.
pub trait RingState: Clone + Ord {
    /// The state relabelled by rotation amount `k` (new index `i` = old
    /// index `i + k`, mod the ring size).
    fn rotated(&self, k: usize) -> Self;
}

/// The cyclic rotation symmetry of a ring of `n` processes.
///
/// Canonical form is the minimum of all `n` rotations under the state's
/// `Ord`. Sound whenever the model treats all ring positions identically —
/// for the fault-wrapped models this means the fault plan must not name
/// specific processes (an empty plan); the `pa-faults` quotient entry
/// points enforce that.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingRotation {
    n: usize,
}

impl RingRotation {
    /// The rotation group of a ring of `n` processes.
    pub fn new(n: usize) -> RingRotation {
        RingRotation { n }
    }

    /// Ring size.
    pub fn n(&self) -> usize {
        self.n
    }
}

impl<S: RingState + Send + Sync> Symmetry<S> for RingRotation {
    fn canon(&self, s: &S) -> S {
        let mut best = s.clone();
        for k in 1..self.n {
            let r = s.rotated(k);
            if r < best {
                best = r;
            }
        }
        best
    }

    fn order(&self) -> usize {
        self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy ring state: one small payload value per position.
    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
    struct Toy(Vec<u8>);

    impl RingState for Toy {
        fn rotated(&self, k: usize) -> Toy {
            let n = self.0.len();
            Toy((0..n).map(|i| self.0[(i + k) % n]).collect())
        }
    }

    #[test]
    fn canon_picks_the_least_rotation() {
        let sym = RingRotation::new(4);
        let s = Toy(vec![2, 0, 1, 0]);
        let c = sym.canon(&s);
        assert_eq!(c, Toy(vec![0, 1, 0, 2]));
    }

    #[test]
    fn canon_is_idempotent_and_orbit_invariant() {
        let sym = RingRotation::new(5);
        let s = Toy(vec![3, 1, 4, 1, 5]);
        let c = sym.canon(&s);
        assert_eq!(sym.canon(&c), c);
        for k in 0..5 {
            assert_eq!(sym.canon(&s.rotated(k)), c, "rotation {k}");
        }
    }

    #[test]
    fn symmetric_states_are_their_own_orbit() {
        let sym = RingRotation::new(3);
        let s = Toy(vec![7, 7, 7]);
        assert_eq!(sym.canon(&s), s);
        assert_eq!(<RingRotation as Symmetry<Toy>>::order(&sym), 3);
    }
}
