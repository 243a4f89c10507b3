//! Performance accounting for simulated kernels.
//!
//! Real GPU work is measured with CUDA events and profilers; the simulator
//! instead counts the operations that dominate GPU kernel cost — global
//! memory transactions, atomic read-modify-writes and launched threads — and
//! lets [`crate::CostModel`] convert them into simulated time.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use serde::Serialize;

/// Device-global operation counters, shared by every buffer of a device.
///
/// Kernel-side accesses (the [`Channel`]s) are counted in batches: while a
/// launch runs, every host thread executing its blocks holds a
/// [`BatchGuard`] and adds each word access to a plain thread-local count,
/// which the guard flushes here when the thread finishes its share of the
/// launch — also when a kernel panics. The device reads its counters only
/// after every guard of a launch has dropped, so per-kernel deltas are
/// exact. An access with no open batch for its device (host code, or a
/// kernel touching another device's buffer) and the host↔device transfer
/// counts go straight to these atomics. All increments are relaxed: the
/// counters are statistics, not synchronisation.
#[derive(Debug, Default)]
pub(crate) struct GlobalCounters {
    pub(crate) reads: AtomicU64,
    pub(crate) writes: AtomicU64,
    pub(crate) coalesced_reads: AtomicU64,
    pub(crate) coalesced_writes: AtomicU64,
    pub(crate) atomics: AtomicU64,
    pub(crate) h2d_words: AtomicU64,
    pub(crate) d2h_words: AtomicU64,
}

/// A kernel-side counter of [`GlobalCounters`]: the counts a launch
/// attributes to its kernel, batched per host thread.
#[derive(Clone, Copy)]
pub(crate) enum Channel {
    Reads,
    Writes,
    CoalescedReads,
    CoalescedWrites,
    Atomics,
}

const CHANNELS: [Channel; 5] = [
    Channel::Reads,
    Channel::Writes,
    Channel::CoalescedReads,
    Channel::CoalescedWrites,
    Channel::Atomics,
];

/// A thread's batch: the device whose launch is open on the thread (null
/// when none) and its not-yet-flushed counts, indexed by [`Channel`].
type BatchState = (*const GlobalCounters, [u64; CHANNELS.len()]);

struct Batch {
    owner: Cell<*const GlobalCounters>,
    counts: [Cell<u64>; CHANNELS.len()],
}

impl Batch {
    /// Install `state`, returning the one it replaces.
    fn replace(&self, (owner, counts): BatchState) -> BatchState {
        (
            self.owner.replace(owner),
            std::array::from_fn(|c| self.counts[c].replace(counts[c])),
        )
    }
}

thread_local! {
    static BATCH: Batch = const {
        Batch {
            owner: Cell::new(std::ptr::null()),
            counts: [const { Cell::new(0) }; CHANNELS.len()],
        }
    };
}

/// Whether this thread has a batch open, which it has exactly while it runs
/// a launch's blocks.
pub(crate) fn batch_open() -> bool {
    BATCH.with(|batch| !batch.owner.get().is_null())
}

/// Open batch of one host thread for one device; dropping it flushes the
/// batch into the device's [`GlobalCounters`] and reinstates whatever batch
/// it displaced (a launch started from inside a kernel).
pub(crate) struct BatchGuard<'a> {
    counters: &'a GlobalCounters,
    displaced: BatchState,
}

impl Drop for BatchGuard<'_> {
    fn drop(&mut self) {
        let (_, counts) = BATCH.with(|batch| batch.replace(self.displaced));
        for (channel, n) in CHANNELS.into_iter().zip(counts) {
            if n > 0 {
                self.counters
                    .shared(channel)
                    .fetch_add(n, Ordering::Relaxed);
            }
        }
    }
}

/// A relaxed snapshot of [`GlobalCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct CounterSnapshot {
    pub(crate) reads: u64,
    pub(crate) writes: u64,
    pub(crate) coalesced_reads: u64,
    pub(crate) coalesced_writes: u64,
    pub(crate) atomics: u64,
    pub(crate) h2d_words: u64,
    pub(crate) d2h_words: u64,
}

impl GlobalCounters {
    fn shared(&self, channel: Channel) -> &AtomicU64 {
        match channel {
            Channel::Reads => &self.reads,
            Channel::Writes => &self.writes,
            Channel::CoalescedReads => &self.coalesced_reads,
            Channel::CoalescedWrites => &self.coalesced_writes,
            Channel::Atomics => &self.atomics,
        }
    }

    /// Count one operation on `channel`: a plain add to this thread's batch
    /// while it is open for this device, a relaxed atomic add otherwise.
    #[inline]
    pub(crate) fn count(&self, channel: Channel) {
        BATCH.with(|batch| {
            if std::ptr::eq(batch.owner.get(), self) {
                let n = &batch.counts[channel as usize];
                n.set(n.get() + 1);
            } else {
                self.shared(channel).fetch_add(1, Ordering::Relaxed);
            }
        });
    }

    /// Open this thread's batch for these counters until the guard drops.
    pub(crate) fn open_batch(&self) -> BatchGuard<'_> {
        let displaced = BATCH.with(|batch| batch.replace((self, [0; CHANNELS.len()])));
        BatchGuard {
            counters: self,
            displaced,
        }
    }

    pub(crate) fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            coalesced_reads: self.coalesced_reads.load(Ordering::Relaxed),
            coalesced_writes: self.coalesced_writes.load(Ordering::Relaxed),
            atomics: self.atomics.load(Ordering::Relaxed),
            h2d_words: self.h2d_words.load(Ordering::Relaxed),
            d2h_words: self.d2h_words.load(Ordering::Relaxed),
        }
    }
}

/// Per-kernel execution record: launch geometry, operation counts observed
/// during the kernel, host wall-clock time and the cost-model's simulated
/// GPU time.
#[derive(Debug, Clone, Serialize)]
pub struct KernelStats {
    /// Kernel name as passed to `launch`. Static so that logging a kernel
    /// never touches the heap (the steady-state iterate is allocation-free).
    pub name: &'static str,
    /// Number of blocks in the launch.
    pub grid_dim: usize,
    /// Threads per block.
    pub block_dim: usize,
    /// Total threads launched (`grid_dim * block_dim`).
    pub threads: u64,
    /// Global-memory word loads performed by the kernel.
    pub reads: u64,
    /// Global-memory word stores performed by the kernel.
    pub writes: u64,
    /// Subset of `reads` issued through the coalesced access path
    /// (warp-contiguous lane-blocked layouts); charged at full bandwidth by
    /// the cost model.
    pub coalesced_reads: u64,
    /// Subset of `writes` issued through the coalesced access path.
    pub coalesced_writes: u64,
    /// Atomic read-modify-write operations performed by the kernel.
    pub atomics: u64,
    /// Host wall-clock nanoseconds spent simulating the kernel.
    pub host_nanos: u64,
    /// Simulated GPU nanoseconds per the device cost model.
    pub sim_nanos: u64,
}

/// Aggregate performance report over every kernel executed since the last
/// counter reset, in launch order.
#[derive(Debug, Clone, Serialize, Default)]
pub struct PerfReport {
    /// Per-kernel records, oldest first.
    pub kernels: Vec<KernelStats>,
    /// Sum of launched threads.
    pub total_threads: u64,
    /// Sum of global-memory word loads.
    pub total_reads: u64,
    /// Sum of global-memory word stores.
    pub total_writes: u64,
    /// Sum of coalesced global-memory word loads (subset of `total_reads`).
    pub total_coalesced_reads: u64,
    /// Sum of coalesced global-memory word stores (subset of `total_writes`).
    pub total_coalesced_writes: u64,
    /// Sum of atomic operations.
    pub total_atomics: u64,
    /// Host-to-device transferred words (outside kernels).
    pub h2d_words: u64,
    /// Device-to-host transferred words (outside kernels).
    pub d2h_words: u64,
    /// Sum of host wall-clock nanoseconds across kernels.
    pub total_host_nanos: u64,
    /// Sum of simulated GPU nanoseconds across kernels, including the
    /// simulated PCIe transfer time for host/device copies.
    pub total_sim_nanos: u64,
}

impl PerfReport {
    /// Simulated GPU time in seconds.
    pub fn sim_seconds(&self) -> f64 {
        self.total_sim_nanos as f64 / 1e9
    }

    /// Host wall-clock seconds spent inside kernels.
    pub fn host_seconds(&self) -> f64 {
        self.total_host_nanos as f64 / 1e9
    }

    /// Number of kernel launches in the report.
    pub fn launches(&self) -> usize {
        self.kernels.len()
    }

    /// Total global-memory words moved by kernels (loads + stores).
    pub fn total_mem_words(&self) -> u64 {
        self.total_reads + self.total_writes
    }

    /// Fraction of kernel memory words that went through the coalesced
    /// access path, in `[0, 1]`. Returns 0 when no words moved.
    pub fn coalesced_fraction(&self) -> f64 {
        let total = self.total_mem_words();
        if total == 0 {
            return 0.0;
        }
        (self.total_coalesced_reads + self.total_coalesced_writes) as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_increments() {
        let c = GlobalCounters::default();
        c.reads.fetch_add(3, Ordering::Relaxed);
        c.atomics.fetch_add(2, Ordering::Relaxed);
        c.coalesced_reads.fetch_add(1, Ordering::Relaxed);
        let s = c.snapshot();
        assert_eq!(s.reads, 3);
        assert_eq!(s.writes, 0);
        assert_eq!(s.atomics, 2);
        assert_eq!(s.coalesced_reads, 1);
        assert_eq!(s.coalesced_writes, 0);
    }

    #[test]
    fn batch_defers_counts_until_its_guard_drops() {
        let (outer, inner) = (GlobalCounters::default(), GlobalCounters::default());
        outer.count(Channel::Reads); // no batch open: straight to the atomics
        assert_eq!(outer.snapshot().reads, 1);
        let outer_batch = outer.open_batch();
        outer.count(Channel::Reads);
        outer.count(Channel::CoalescedReads);
        inner.count(Channel::Atomics); // not the open batch's counters
        assert_eq!(inner.snapshot().atomics, 1);
        {
            // a batch opened inside another displaces it until it drops
            let _inner_batch = inner.open_batch();
            inner.count(Channel::Writes);
            outer.count(Channel::Writes);
            assert_eq!(inner.snapshot().writes, 0);
        }
        assert_eq!(inner.snapshot().writes, 1);
        outer.count(Channel::Reads);
        let direct = CounterSnapshot {
            reads: 1,
            writes: 1,
            ..CounterSnapshot::default()
        };
        assert_eq!(outer.snapshot(), direct);
        drop(outer_batch);
        let flushed = CounterSnapshot {
            reads: 3,
            coalesced_reads: 1,
            ..direct
        };
        assert_eq!(outer.snapshot(), flushed);
    }

    #[test]
    fn report_helpers() {
        let r = PerfReport {
            total_sim_nanos: 2_500_000_000,
            total_host_nanos: 1_000_000_000,
            ..Default::default()
        };
        assert!((r.sim_seconds() - 2.5).abs() < 1e-12);
        assert!((r.host_seconds() - 1.0).abs() < 1e-12);
        assert_eq!(r.launches(), 0);
        assert_eq!(r.coalesced_fraction(), 0.0);
    }

    #[test]
    fn coalesced_fraction_counts_both_directions() {
        let r = PerfReport {
            total_reads: 60,
            total_writes: 40,
            total_coalesced_reads: 30,
            total_coalesced_writes: 20,
            ..Default::default()
        };
        assert_eq!(r.total_mem_words(), 100);
        assert!((r.coalesced_fraction() - 0.5).abs() < 1e-12);
    }
}
