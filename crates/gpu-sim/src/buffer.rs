//! Simulated global-memory buffers.
//!
//! A [`DeviceBuffer`] is the analogue of a `cudaMalloc` allocation: a
//! fixed-length array of 64-bit words in device global memory. Every element
//! is stored behind an `AtomicU64`, which gives kernels the CUDA guarantee
//! that concurrent word accesses are never torn while keeping the simulator
//! free of undefined behaviour. Plain loads/stores are relaxed atomics (on
//! x86 these compile to ordinary `mov`s), and the atomic read-modify-write
//! family is implemented with compare-exchange loops so that it works
//! uniformly for integer and floating-point words — matching CUDA's
//! `atomicAdd(float*)` semantics.
//!
//! Counting is exact but costs no atomic read-modify-write inside a launch:
//! an access by a kernel of the buffer's own device adds to the executing
//! host thread's batch, which the launch flushes into the device counters
//! before it reads them (see `counters::GlobalCounters`). Any other access,
//! from host code or from a kernel of another device, is a relaxed atomic
//! add on the buffer's own device counters, and a host↔device copy adds its
//! length to the transfer counters once per call.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::counters::{Channel, GlobalCounters};
use crate::word::DeviceWord;

pub(crate) struct BufferInner {
    pub(crate) words: Box<[AtomicU64]>,
    pub(crate) counters: Arc<GlobalCounters>,
    pub(crate) mem_used: Arc<AtomicU64>,
}

impl Drop for BufferInner {
    fn drop(&mut self) {
        let bytes = (self.words.len() * 8) as u64;
        self.mem_used.fetch_sub(bytes, Ordering::Relaxed);
    }
}

/// A typed handle to an allocation in simulated device global memory.
///
/// Handles are cheaply cloneable (`Arc` internally); all clones alias the
/// same memory, the way device pointers passed to several kernels do. The
/// backing memory is released — and the device's memory accounting
/// decremented — when the last handle drops.
pub struct DeviceBuffer<T: DeviceWord> {
    pub(crate) inner: Arc<BufferInner>,
    _marker: std::marker::PhantomData<T>,
}

impl<T: DeviceWord> Clone for DeviceBuffer<T> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
            _marker: std::marker::PhantomData,
        }
    }
}

impl<T: DeviceWord> DeviceBuffer<T> {
    pub(crate) fn from_inner(inner: Arc<BufferInner>) -> Self {
        Self {
            inner,
            _marker: std::marker::PhantomData,
        }
    }

    /// Number of elements in the buffer.
    #[inline]
    pub fn len(&self) -> usize {
        self.inner.words.len()
    }

    /// Whether the buffer has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.inner.words.is_empty()
    }

    /// Load the element at `i` (a global-memory read, counted).
    ///
    /// # Panics
    /// Panics if `i` is out of bounds — the simulator's analogue of a GPU
    /// memory fault, made loud instead of corrupting.
    #[inline]
    pub fn load(&self, i: usize) -> T {
        self.inner.counters.count(Channel::Reads);
        T::from_bits(self.inner.words[i].load(Ordering::Relaxed))
    }

    /// Store `value` at `i` (a global-memory write, counted).
    #[inline]
    pub fn store(&self, i: usize, value: T) {
        self.inner.counters.count(Channel::Writes);
        self.inner.words[i].store(value.to_bits(), Ordering::Relaxed);
    }

    /// Load the element at `i` through the coalesced access path.
    ///
    /// Semantically identical to [`DeviceBuffer::load`]; the only difference
    /// is accounting. A kernel declares that this access is part of a
    /// warp-contiguous pattern (consecutive lanes touch consecutive words,
    /// as in the lane-blocked trig tables), and the cost model then charges
    /// the word at full memory bandwidth instead of the coalescing-derated
    /// rate. Counted both as a regular read and as a coalesced read.
    #[inline]
    pub fn load_coalesced(&self, i: usize) -> T {
        self.inner.counters.count(Channel::Reads);
        self.inner.counters.count(Channel::CoalescedReads);
        T::from_bits(self.inner.words[i].load(Ordering::Relaxed))
    }

    /// Store `value` at `i` through the coalesced access path. See
    /// [`DeviceBuffer::load_coalesced`] for the accounting contract.
    #[inline]
    pub fn store_coalesced(&self, i: usize, value: T) {
        self.inner.counters.count(Channel::Writes);
        self.inner.counters.count(Channel::CoalescedWrites);
        self.inner.words[i].store(value.to_bits(), Ordering::Relaxed);
    }

    /// Atomically `mem[i] += value`, returning the previous value.
    ///
    /// Implemented as a compare-exchange loop so it is exact for both
    /// integer and floating-point words (CUDA's `atomicAdd`). Integer
    /// addition wraps, floating-point addition is IEEE.
    #[inline]
    pub fn atomic_add(&self, i: usize, value: T) -> T
    where
        T: WordArith,
    {
        self.inner.counters.count(Channel::Atomics);
        let cell = &self.inner.words[i];
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let old = T::from_bits(cur);
            let new = old.word_add(value).to_bits();
            match cell.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return old,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Atomically increment by one (CUDA `atomicAdd(ptr, 1)`), returning the
    /// previous value. The canonical "claim a slot in a list" operation from
    /// §4.2.1 of the paper.
    #[inline]
    pub fn atomic_inc(&self, i: usize) -> T
    where
        T: WordArith,
    {
        self.atomic_add(i, T::word_one())
    }

    /// Atomically `mem[i] = max(mem[i], value)`, returning the previous value.
    #[inline]
    pub fn atomic_max(&self, i: usize, value: T) -> T
    where
        T: PartialOrd,
    {
        self.atomic_update(i, |old| if value > old { Some(value) } else { None })
    }

    /// Atomically `mem[i] = min(mem[i], value)`, returning the previous value.
    #[inline]
    pub fn atomic_min(&self, i: usize, value: T) -> T
    where
        T: PartialOrd,
    {
        self.atomic_update(i, |old| if value < old { Some(value) } else { None })
    }

    /// Atomic compare-and-swap on the *bit patterns* of `expected`/`new`
    /// (CUDA `atomicCAS`). Returns the previous value; the swap happened iff
    /// the returned value bit-equals `expected`.
    #[inline]
    pub fn atomic_cas(&self, i: usize, expected: T, new: T) -> T {
        self.inner.counters.count(Channel::Atomics);
        let cell = &self.inner.words[i];
        match cell.compare_exchange(
            expected.to_bits(),
            new.to_bits(),
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(prev) | Err(prev) => T::from_bits(prev),
        }
    }

    /// Atomically replace the element with `value`, returning the previous
    /// value (CUDA `atomicExch`).
    #[inline]
    pub fn atomic_exchange(&self, i: usize, value: T) -> T {
        self.inner.counters.count(Channel::Atomics);
        T::from_bits(self.inner.words[i].swap(value.to_bits(), Ordering::Relaxed))
    }

    /// Generic atomic read-modify-write: `f` maps the observed value to
    /// `Some(new)` to attempt a swap or `None` to leave memory unchanged.
    /// Returns the value observed when the operation settled.
    #[inline]
    pub fn atomic_update(&self, i: usize, f: impl Fn(T) -> Option<T>) -> T {
        self.inner.counters.count(Channel::Atomics);
        let cell = &self.inner.words[i];
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let old = T::from_bits(cur);
            match f(old) {
                None => return old,
                Some(new) => {
                    match cell.compare_exchange_weak(
                        cur,
                        new.to_bits(),
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => return old,
                        Err(seen) => cur = seen,
                    }
                }
            }
        }
    }

    /// Copy the whole buffer to the host (a device-to-host transfer,
    /// counted against PCIe in the cost model).
    pub fn to_vec(&self) -> Vec<T> {
        self.inner
            .counters
            .d2h_words
            .fetch_add(self.len() as u64, Ordering::Relaxed);
        self.inner
            .words
            .iter()
            .map(|w| T::from_bits(w.load(Ordering::Relaxed)))
            .collect()
    }

    /// Copy `src` into the buffer starting at element 0 (a host-to-device
    /// transfer, counted).
    ///
    /// # Panics
    /// Panics if `src.len() > self.len()`.
    pub fn copy_from_slice(&self, src: &[T]) {
        assert!(
            src.len() <= self.len(),
            "host slice of {} elements does not fit buffer of {}",
            src.len(),
            self.len()
        );
        self.inner
            .counters
            .h2d_words
            .fetch_add(src.len() as u64, Ordering::Relaxed);
        for (w, v) in self.inner.words.iter().zip(src) {
            w.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Set every element to `value` from the host side (counted as a
    /// host-to-device transfer; use [`crate::primitives::fill`] for the
    /// kernel version).
    pub fn fill_host(&self, value: T) {
        self.inner
            .counters
            .h2d_words
            .fetch_add(self.len() as u64, Ordering::Relaxed);
        let bits = value.to_bits();
        for w in self.inner.words.iter() {
            w.store(bits, Ordering::Relaxed);
        }
    }

    /// Size of the allocation in bytes.
    #[inline]
    pub fn size_bytes(&self) -> usize {
        self.len() * 8
    }
}

impl<T: DeviceWord + std::fmt::Debug> std::fmt::Debug for DeviceBuffer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DeviceBuffer<{}>[len={}]",
            std::any::type_name::<T>(),
            self.len()
        )
    }
}

/// Word types with the arithmetic needed by `atomic_add`/`atomic_inc`.
pub trait WordArith: DeviceWord {
    /// `self + rhs` — IEEE for floats, wrapping for integers (GPU semantics).
    fn word_add(self, rhs: Self) -> Self;
    /// Multiplicative identity, the increment used by [`DeviceBuffer::atomic_inc`].
    fn word_one() -> Self;
}

macro_rules! impl_word_arith_int {
    ($($t:ty),*) => {$(
        impl WordArith for $t {
            #[inline(always)]
            fn word_add(self, rhs: Self) -> Self { self.wrapping_add(rhs) }
            #[inline(always)]
            fn word_one() -> Self { 1 }
        }
    )*};
}
impl_word_arith_int!(u64, u32, i64, i32, usize);

impl WordArith for f64 {
    #[inline(always)]
    fn word_add(self, rhs: Self) -> Self {
        self + rhs
    }
    #[inline(always)]
    fn word_one() -> Self {
        1.0
    }
}

impl WordArith for f32 {
    #[inline(always)]
    fn word_add(self, rhs: Self) -> Self {
        self + rhs
    }
    #[inline(always)]
    fn word_one() -> Self {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use crate::device::{Device, DeviceConfig};

    fn dev() -> Device {
        Device::new(DeviceConfig::default())
    }

    #[test]
    fn load_store_roundtrip() {
        let d = dev();
        let b = d.alloc::<f64>(4);
        b.store(2, 1.25);
        assert_eq!(b.load(2), 1.25);
        assert_eq!(b.load(0), 0.0);
    }

    #[test]
    fn alloc_is_zeroed() {
        let d = dev();
        let b = d.alloc::<u64>(128);
        assert!(b.to_vec().iter().all(|&x| x == 0));
    }

    #[test]
    fn atomic_add_float_accumulates_exactly() {
        let d = dev();
        let b = d.alloc::<f64>(1);
        for _ in 0..100 {
            b.atomic_add(0, 0.5);
        }
        assert_eq!(b.load(0), 50.0);
    }

    #[test]
    fn atomic_add_returns_previous() {
        let d = dev();
        let b = d.alloc::<u64>(1);
        assert_eq!(b.atomic_add(0, 7), 0);
        assert_eq!(b.atomic_add(0, 7), 7);
        assert_eq!(b.load(0), 14);
    }

    #[test]
    fn atomic_inc_claims_consecutive_slots() {
        let d = dev();
        let b = d.alloc::<u64>(1);
        let slots: Vec<u64> = (0..10).map(|_| b.atomic_inc(0)).collect();
        assert_eq!(slots, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn atomic_minmax() {
        let d = dev();
        let b = d.alloc::<f64>(1);
        b.store(0, 5.0);
        b.atomic_max(0, 9.0);
        assert_eq!(b.load(0), 9.0);
        b.atomic_max(0, 1.0);
        assert_eq!(b.load(0), 9.0);
        b.atomic_min(0, -2.0);
        assert_eq!(b.load(0), -2.0);
    }

    #[test]
    fn atomic_cas_semantics() {
        let d = dev();
        let b = d.alloc::<u64>(1);
        b.store(0, 10);
        assert_eq!(b.atomic_cas(0, 10, 20), 10); // success observes expected
        assert_eq!(b.load(0), 20);
        assert_eq!(b.atomic_cas(0, 10, 30), 20); // failure observes current
        assert_eq!(b.load(0), 20);
    }

    #[test]
    fn atomic_exchange_swaps() {
        let d = dev();
        let b = d.alloc::<i64>(1);
        b.store(0, -5);
        assert_eq!(b.atomic_exchange(0, 8), -5);
        assert_eq!(b.load(0), 8);
    }

    #[test]
    fn copy_roundtrip() {
        let d = dev();
        let b = d.alloc::<f64>(3);
        b.copy_from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(b.to_vec(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversize_copy_panics() {
        let d = dev();
        let b = d.alloc::<f64>(2);
        b.copy_from_slice(&[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_load_panics() {
        let d = dev();
        let b = d.alloc::<f64>(2);
        let _ = b.load(2);
    }

    #[test]
    fn clones_alias_memory() {
        let d = dev();
        let a = d.alloc::<u32>(1);
        let b = a.clone();
        a.store(0, 42);
        assert_eq!(b.load(0), 42);
    }

    #[test]
    fn fill_host_sets_all() {
        let d = dev();
        let b = d.alloc::<u32>(5);
        b.fill_host(7);
        assert_eq!(b.to_vec(), vec![7; 5]);
    }
}
