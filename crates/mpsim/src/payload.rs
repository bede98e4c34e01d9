//! Message payloads.
//!
//! Because all ranks live in one process, messages move as typed Rust
//! values — no serialization. What the cost model needs is the *wire size*,
//! which each payload type reports via [`Payload::nbytes`] (payload bytes
//! only; the per-message envelope is folded into α).
//!
//! **Shared payloads.** An `Arc<T>` is a payload whose wire size is its
//! `T`'s: the model charges it exactly as the value itself, while the host
//! hands every receiver the sender's allocation. A broadcast of an
//! `Arc<Vec<f64>>` therefore costs one buffer however many ranks it
//! reaches, where a `Vec` is copied once per tree edge (and once more per
//! injected duplicate) — same virtual statistics, less host work.

use std::sync::Arc;

/// A value that can be sent between ranks.
///
/// `Clone` is required so the simulator can deliver a message more than
/// once under an injected duplication fault ([`crate::fault::Fault`]);
/// real payloads are plain data, so the bound costs nothing.
pub trait Payload: Send + Clone + 'static {
    /// Number of bytes this value would occupy on the wire.
    fn nbytes(&self) -> usize;
}

macro_rules! scalar_payload {
    ($($t:ty),*) => {$(
        impl Payload for $t {
            fn nbytes(&self) -> usize {
                std::mem::size_of::<$t>()
            }
        }
    )*};
}

scalar_payload!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64, bool);

impl Payload for () {
    fn nbytes(&self) -> usize {
        0
    }
}

impl<T: Send + 'static + Copy> Payload for Vec<T> {
    fn nbytes(&self) -> usize {
        std::mem::size_of::<T>() * self.len()
    }
}

impl<T: Payload + Sync> Payload for Arc<T> {
    fn nbytes(&self) -> usize {
        (**self).nbytes()
    }
}

impl<A: Payload, B: Payload> Payload for (A, B) {
    fn nbytes(&self) -> usize {
        self.0.nbytes() + self.1.nbytes()
    }
}

impl<A: Payload, B: Payload, C: Payload> Payload for (A, B, C) {
    fn nbytes(&self) -> usize {
        self.0.nbytes() + self.1.nbytes() + self.2.nbytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_sizes() {
        assert_eq!(1u8.nbytes(), 1);
        assert_eq!(1u64.nbytes(), 8);
        assert_eq!(1.0f64.nbytes(), 8);
        assert_eq!(().nbytes(), 0);
    }

    #[test]
    fn vector_sizes() {
        assert_eq!(vec![0f64; 10].nbytes(), 80);
        assert_eq!(vec![0u32; 3].nbytes(), 12);
        assert_eq!(Vec::<f64>::new().nbytes(), 0);
    }

    #[test]
    fn shared_sizes_are_the_values() {
        assert_eq!(Arc::new(vec![0f64; 10]).nbytes(), 80);
        assert_eq!(Arc::new(7u32).nbytes(), 4);
    }

    #[test]
    fn tuple_sizes() {
        assert_eq!((1u64, vec![0f64; 2]).nbytes(), 24);
        assert_eq!((1u8, 2u8, vec![0u8; 5]).nbytes(), 7);
    }
}
