//! Host-parallel execution engine shared by every CPU-threaded stage.
//!
//! One [`Executor`] drives grid construction, the per-point update and the
//! exact-termination check of the host EGG-SynC backend, the MP-SynC
//! baseline, and the kernel launches of the simulated GPU, whose blocks it
//! runs as gpu-sim's [`BlockRunner`]. Work is split into **fixed-size
//! chunks** pulled from a shared claim counter by the executor's workers.
//!
//! ## Dispatch
//!
//! An executor with more than one worker holds a pool of long-lived
//! workers, spawned once and parked on a condvar between dispatches. A
//! dispatch publishes a job generation (epoch) under the pool mutex, wakes
//! the workers, and the *calling thread participates* in the claim loop;
//! the call returns only after every woken worker has retired the job, so
//! chunk closures may borrow from the caller's stack. Steady-state
//! dispatch performs **zero heap allocations**: no thread spawns and no
//! per-call result `Mutex`es. That is what makes a hundreds-of-iterations
//! run cheap: on 1k tiny fan-outs, per-call scoped thread spawns cost
//! ~55–64 µs per dispatch against the pool's ~5 µs, and a run issues
//! thousands of dispatches.
//!
//! ## Determinism contract
//!
//! Every combinator here guarantees results that are *bit-for-bit
//! identical regardless of the worker count*:
//!
//! * chunk boundaries depend only on the problem size and the chunk
//!   length, never on how many workers exist or which worker claims a
//!   chunk;
//! * per-chunk results land in a fixed slot per chunk and are consumed
//!   **in chunk order**, so floating-point reductions over them are
//!   performed in a fixed association order;
//! * chunk closures must be pure with respect to scheduling (they receive
//!   disjoint data and a deterministic index), which every call site in
//!   this crate upholds.
//!
//! With one worker (or one chunk) the engine degenerates to an inline
//! sequential loop with no dispatch at all, so `threads: Some(1)` is the
//! zero-overhead reference execution.

use std::ffi::OsStr;
use std::marker::PhantomData;
use std::mem::MaybeUninit;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use egg_gpu_sim::BlockRunner;

/// A shared view over a mutable slice that lets parallel chunk closures
/// scatter-write to caller-proven **disjoint** index ranges.
///
/// [`Executor::map_chunks_mut`] hands each worker a contiguous chunk, which
/// is the wrong shape for stages that process points in *grid-sorted* order
/// (§4.2.6) but write results at the points' original rows. The writer
/// carries the exclusive borrow of the output for its lifetime; every
/// access goes through [`ScatterWriter::row_mut`], whose safety contract is
/// that no two concurrently live calls may overlap. The EGG call sites
/// uphold it structurally: rows are indexed by entries of a permutation, so
/// each row is written by exactly one chunk.
pub struct ScatterWriter<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

unsafe impl<T: Send> Send for ScatterWriter<'_, T> {}
unsafe impl<T: Send> Sync for ScatterWriter<'_, T> {}

impl<'a, T> ScatterWriter<'a, T> {
    /// Wrap `slice`, taking over its exclusive borrow.
    pub fn new(slice: &'a mut [T]) -> Self {
        Self {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: PhantomData,
        }
    }

    /// Length of the wrapped slice.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the wrapped slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Exclusive access to `start..start + len`.
    ///
    /// # Safety
    /// The range must be in bounds, and no two concurrently live `row_mut`
    /// ranges (across all threads) may overlap.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn row_mut(&self, start: usize, len: usize) -> &mut [T] {
        debug_assert!(start + len <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(start), len)
    }
}

/// Default points per work chunk for per-point stages. Small enough to
/// balance ragged workloads, large enough to amortize queue traffic.
pub const POINT_CHUNK: usize = 1024;

/// Default cells per work chunk for per-cell stages (summaries).
pub const CELL_CHUNK: usize = 256;

/// Parse the value of the positive-integer environment override `var`,
/// trimmed. The error names the variable and its value.
pub(crate) fn parse_count(var: &str, value: &OsStr) -> Result<usize, String> {
    value
        .to_str()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .ok_or_else(|| format!("{var}={value:?}: want a positive integer"))
}

/// The positive-integer environment override `var`, or `None` when it is
/// unset (`EGG_THREADS`, `EGG_NUM_SHARDS`).
///
/// # Panics
/// If `var` is set to anything but a positive integer: a mistyped value
/// would otherwise run the default configuration.
pub(crate) fn env_count(var: &str) -> Option<usize> {
    let value = std::env::var_os(var)?;
    Some(parse_count(var, &value).unwrap_or_else(|e| panic!("{e}")))
}

/// Process-wide `EGG_THREADS` override consumed by `Executor::new(None)`
/// (paralleling `EGG_NUM_SHARDS`): pins the default worker count, for the
/// host engines and the simulated GPU's launches alike, without touching
/// call sites. Explicit `Some(n)` requests always win.
pub(crate) fn threads_default() -> Option<usize> {
    static N: std::sync::OnceLock<Option<usize>> = std::sync::OnceLock::new();
    *N.get_or_init(|| env_count("EGG_THREADS"))
}

/// Lock a mutex, recovering the guard if another thread panicked while
/// holding it — pool bookkeeping must survive a panicking job closure so
/// the dispatching caller is never left waiting forever.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Dispatch instrumentation shared by all clones of an [`Executor`]:
/// how many parallel dispatches were issued and how long the dispatch
/// machinery itself took, summed on the calling thread.
#[derive(Debug, Default)]
struct ExecStats {
    dispatches: AtomicU64,
    overhead_nanos: AtomicU64,
}

/// Type-erased job body published to the pool workers. The raw pointer is
/// only dereferenced between the epoch publish and the completion wait of
/// the same [`Pool::run`] call, which outlives the borrow it erases.
#[derive(Clone, Copy)]
struct BodyPtr(*const (dyn Fn() + Sync));
unsafe impl Send for BodyPtr {}

struct PoolState {
    /// Job generation; bumped once per dispatch so a worker never runs the
    /// same job twice.
    epoch: u64,
    /// The published job, present only while a dispatch is in flight.
    body: Option<BodyPtr>,
    /// Workers still running the current job.
    running: usize,
    /// Live workers — the participant count of the next dispatch. Shrinks
    /// when a job closure panics and unwinds a worker, as that worker
    /// retires the job.
    alive: usize,
    /// A worker's job closure panicked during the current dispatch.
    panicked: bool,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Workers park here between jobs.
    work: Condvar,
    /// The dispatching caller parks here until `running` drains to zero.
    done: Condvar,
}

/// A pool of long-lived parked workers. Dispatch is epoch-based: the
/// caller publishes a job body and a new generation under the mutex, wakes
/// everyone, runs the body itself, then waits for the workers to retire
/// the generation. Workers are joined on [`Drop`].
struct Pool {
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    fn new(workers: usize) -> Self {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                epoch: 0,
                body: None,
                running: 0,
                alive: workers,
                panicked: false,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("egg-exec-{i}"))
                    .spawn(move || Self::worker_loop(&shared))
                    .expect("spawn executor pool worker")
            })
            .collect();
        Self { shared, handles }
    }

    fn worker_loop(shared: &PoolShared) {
        let mut seen = 0u64;
        loop {
            let body = {
                let mut st = lock(&shared.state);
                loop {
                    if st.shutdown {
                        return;
                    }
                    if let Some(ptr) = st.body {
                        if st.epoch != seen {
                            seen = st.epoch;
                            break ptr;
                        }
                    }
                    st = shared
                        .work
                        .wait(st)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                }
            };
            // retire the job even if its body panics: the dispatching
            // caller is blocked on `running` reaching zero. A panicking
            // worker unwinds out of the pool, so it also leaves the live
            // count here, in the same critical section: once `running`
            // drains, the next dispatch counts only workers that will
            // report back
            struct DoneGuard<'a>(&'a PoolShared);
            impl Drop for DoneGuard<'_> {
                fn drop(&mut self) {
                    let mut st = lock(&self.0.state);
                    if std::thread::panicking() {
                        st.panicked = true;
                        st.alive -= 1;
                    }
                    st.running -= 1;
                    if st.running == 0 {
                        self.0.done.notify_all();
                    }
                }
            }
            let _done = DoneGuard(shared);
            // SAFETY: the publishing `run` call waits for `running == 0`
            // before returning, so the erased borrow is still live
            unsafe { (*body.0)() };
        }
    }

    /// Run `body` on the caller *and* every live pool worker; return once
    /// all of them finished. Allocation-free.
    fn run(&self, body: &(dyn Fn() + Sync), stats: &ExecStats) {
        let t0 = Instant::now();
        // SAFETY (lifetime erasure): this call does not return until every
        // worker has retired the job, so `body`'s borrows outlive all uses
        let body_static: &'static (dyn Fn() + Sync) = unsafe { std::mem::transmute(body) };
        {
            let mut st = lock(&self.shared.state);
            debug_assert!(st.body.is_none() && st.running == 0);
            st.epoch = st.epoch.wrapping_add(1);
            st.body = Some(BodyPtr(body_static as *const _));
            st.running = st.alive;
        }
        // only the synchronous publication cost (lock + epoch bump + body
        // store) counts as overhead: the wake below can preempt straight
        // into a woken worker's claim loop on an oversubscribed host, and
        // the post-claim wait is other workers *working* — charging either
        // here would let OS scheduling noise masquerade as dispatch cost
        // in the ledger
        stats
            .overhead_nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.shared.work.notify_all();
        // the caller participates; a panic here must still wait for the
        // workers (their claim loops borrow from this stack frame)
        let caller = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
        let mut st = lock(&self.shared.state);
        while st.running > 0 {
            st = self
                .shared
                .done
                .wait(st)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        st.body = None;
        let worker_panicked = std::mem::replace(&mut st.panicked, false);
        drop(st);
        if let Err(payload) = caller {
            std::panic::resume_unwind(payload);
        }
        if worker_panicked {
            panic!("executor pool worker panicked during parallel dispatch");
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        lock(&self.shared.state).shutdown = true;
        self.shared.work.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A fixed-width executor with deterministic chunking, backed by a
/// persistent worker pool (see the module docs). Clones share the pool and
/// the dispatch instrumentation.
#[derive(Clone)]
pub struct Executor {
    workers: usize,
    /// `workers - 1` parked threads; the caller is the remaining worker.
    /// `None` exactly when `workers == 1`, which never dispatches.
    pool: Option<Arc<Pool>>,
    stats: Arc<ExecStats>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("workers", &self.workers)
            .finish()
    }
}

impl Executor {
    /// An executor with `threads` workers; `None` uses the `EGG_THREADS`
    /// environment override when set, else the host's available
    /// parallelism. The count is clamped to at least 1, and more than one
    /// worker parks `workers - 1` long-lived threads.
    pub fn new(threads: Option<usize>) -> Self {
        let workers = threads
            .or_else(threads_default)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
            .max(1);
        let pool = (workers > 1).then(|| Arc::new(Pool::new(workers - 1)));
        Self {
            workers,
            pool,
            stats: Arc::new(ExecStats::default()),
        }
    }

    /// Same as [`Executor::new`]; stays only because `perfbench/src/traced.rs` calls it.
    #[doc(hidden)]
    pub fn with_mode(threads: Option<usize>, _pooled: bool) -> Self {
        Self::new(threads)
    }

    /// A single-worker executor (inline sequential execution).
    pub fn sequential() -> Self {
        Self::new(Some(1))
    }

    /// Number of worker threads this executor fans work over.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Parallel dispatches issued so far (inline fast paths don't count).
    pub fn dispatch_count(&self) -> u64 {
        self.stats.dispatches.load(Ordering::Relaxed)
    }

    /// Seconds spent in dispatch machinery, summed over all dispatches,
    /// as observed by the calling thread: the synchronous job publication
    /// (lock + epoch bump + body store). The wake and the straggler wait
    /// are not charged — that time is other workers *working*, and
    /// counting it would let scheduler noise pollute the diagnostic on
    /// oversubscribed hosts.
    pub fn dispatch_overhead_seconds(&self) -> f64 {
        self.stats.overhead_nanos.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Fan `body` over the caller and every pool worker: each runs the
    /// same claim loop until the work is drained (surplus workers find the
    /// claim counter exhausted and retire immediately). Every combinator
    /// runs one worker inline, so a dispatch always has a pool.
    fn run_parallel(&self, body: &(dyn Fn() + Sync)) {
        self.stats.dispatches.fetch_add(1, Ordering::Relaxed);
        let pool = self.pool.as_ref().expect("more than one worker has a pool");
        pool.run(body, &self.stats);
    }

    /// Map `f` over `0..n` split into `chunk_len`-sized index ranges,
    /// returning the per-chunk results **in chunk order**.
    ///
    /// `f` only gets shared access to captured state; use
    /// [`Executor::map_chunks_mut`] when the stage writes a buffer.
    ///
    /// The returned `Vec` is this call's only allocation (results are
    /// scatter-written into fixed slots, one per chunk); prefer [`Executor::map_ranges_into`] on steady-state
    /// paths that can own the slot buffer.
    pub fn map_ranges<R, F>(&self, n: usize, chunk_len: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Range<usize>) -> R + Sync,
    {
        let chunk_len = chunk_len.max(1);
        let n_chunks = n.div_ceil(chunk_len);
        let ranges = |c: usize| c * chunk_len..((c + 1) * chunk_len).min(n);
        if self.workers == 1 || n_chunks <= 1 {
            return (0..n_chunks).map(|c| f(ranges(c))).collect();
        }
        let mut results: Vec<MaybeUninit<R>> = Vec::with_capacity(n_chunks);
        // SAFETY: length == capacity; every slot is written exactly once
        // by its claiming chunk below before the vector is read
        unsafe { results.set_len(n_chunks) };
        {
            let slots = ScatterWriter::new(&mut results[..]);
            let (slots, f, next) = (&slots, &f, AtomicUsize::new(0));
            self.run_parallel(&|| loop {
                let c = next.fetch_add(1, Ordering::Relaxed);
                if c >= n_chunks {
                    break;
                }
                let r = f(ranges(c));
                // chunk indices are unique, so slots never overlap
                unsafe { slots.row_mut(c, 1)[0] = MaybeUninit::new(r) };
            });
        }
        // SAFETY: the claim counter visited every chunk index and each
        // wrote its slot; a panicking chunk propagates out of run_parallel
        // before this point (initialized slots then leak, which is safe)
        unsafe { assume_init_vec(results) }
    }

    /// Like [`Executor::map_ranges`], but write the per-chunk results into
    /// the caller-provided `out` slice (one slot per chunk, in chunk order)
    /// instead of collecting a fresh `Vec`. Returns the number of chunks
    /// written. With a workspace-owned `out`, steady-state dispatch
    /// performs **zero heap allocations** (pinned by the
    /// `zero_alloc` integration test).
    ///
    /// # Panics
    /// Panics if `out` holds fewer slots than there are chunks.
    pub fn map_ranges_into<R, F>(&self, n: usize, chunk_len: usize, out: &mut [R], f: F) -> usize
    where
        R: Send,
        F: Fn(Range<usize>) -> R + Sync,
    {
        let chunk_len = chunk_len.max(1);
        let n_chunks = n.div_ceil(chunk_len);
        assert!(
            out.len() >= n_chunks,
            "map_ranges_into: {} result slots for {n_chunks} chunks",
            out.len()
        );
        let ranges = |c: usize| c * chunk_len..((c + 1) * chunk_len).min(n);
        if self.workers == 1 || n_chunks <= 1 {
            for (c, slot) in out.iter_mut().enumerate().take(n_chunks) {
                *slot = f(ranges(c));
            }
            return n_chunks;
        }
        let slots = ScatterWriter::new(&mut out[..n_chunks]);
        let (slots, f, next) = (&slots, &f, AtomicUsize::new(0));
        self.run_parallel(&|| loop {
            let c = next.fetch_add(1, Ordering::Relaxed);
            if c >= n_chunks {
                break;
            }
            let r = f(ranges(c));
            // chunk indices are unique, so slots never overlap
            unsafe { slots.row_mut(c, 1)[0] = r };
        });
        n_chunks
    }

    /// Map `f` over disjoint `chunk_len`-sized mutable chunks of `data`,
    /// returning the per-chunk results **in chunk order**. `f` receives
    /// each chunk's element offset into `data` alongside the chunk.
    ///
    /// The chunking matches `data.chunks_mut(chunk_len)` — when `data`
    /// holds `dim` elements per logical row, pass a multiple of `dim` so
    /// chunks align to row boundaries.
    pub fn map_chunks_mut<T, R, F>(&self, data: &mut [T], chunk_len: usize, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, &mut [T]) -> R + Sync,
    {
        let chunk_len = chunk_len.max(1);
        let data_len = data.len();
        let n_chunks = data_len.div_ceil(chunk_len);
        if self.workers == 1 || n_chunks <= 1 {
            return data
                .chunks_mut(chunk_len)
                .enumerate()
                .map(|(c, chunk)| f(c * chunk_len, chunk))
                .collect();
        }
        let mut results: Vec<MaybeUninit<R>> = Vec::with_capacity(n_chunks);
        // SAFETY: length == capacity; every slot is written exactly once
        unsafe { results.set_len(n_chunks) };
        {
            let chunks = ScatterWriter::new(data);
            let slots = ScatterWriter::new(&mut results[..]);
            let (chunks, slots, f, next) = (&chunks, &slots, &f, AtomicUsize::new(0));
            self.run_parallel(&|| loop {
                let c = next.fetch_add(1, Ordering::Relaxed);
                if c >= n_chunks {
                    break;
                }
                let start = c * chunk_len;
                let len = chunk_len.min(data_len - start);
                // chunk element ranges and result slots are disjoint by
                // construction: each chunk index is claimed exactly once
                let chunk = unsafe { chunks.row_mut(start, len) };
                let r = f(start, chunk);
                unsafe { slots.row_mut(c, 1)[0] = MaybeUninit::new(r) };
            });
        }
        // SAFETY: every chunk wrote its slot (see map_ranges)
        unsafe { assume_init_vec(results) }
    }

    /// Evaluate the pure predicate over every index in `0..n`, returning
    /// whether it held everywhere. Chunks short-circuit: once any index
    /// fails, remaining chunks are abandoned (already-running chunks
    /// finish their current index). The verdict is deterministic because
    /// the predicate is pure — only *how much* work is skipped varies.
    pub fn all<F>(&self, n: usize, chunk_len: usize, pred: F) -> bool
    where
        F: Fn(usize) -> bool + Sync,
    {
        let chunk_len = chunk_len.max(1);
        let n_chunks = n.div_ceil(chunk_len);
        if self.workers == 1 || n_chunks <= 1 {
            return (0..n).all(pred);
        }
        let ok = AtomicBool::new(true);
        let (ok_ref, pred, next) = (&ok, &pred, AtomicUsize::new(0));
        self.run_parallel(&|| {
            while ok_ref.load(Ordering::Relaxed) {
                let c = next.fetch_add(1, Ordering::Relaxed);
                if c >= n_chunks {
                    break;
                }
                for i in c * chunk_len..((c + 1) * chunk_len).min(n) {
                    if !pred(i) {
                        ok_ref.store(false, Ordering::Relaxed);
                        break;
                    }
                }
            }
        });
        ok.load(Ordering::Relaxed)
    }
}

/// Blocks per claim when an executor runs a simulated-GPU launch: a few
/// 128-thread blocks amortize the claim and the chunk's counter flush,
/// and a 4 000-point kernel (32 blocks) still splits into 8 claims. On
/// two workers, claims of 1, 2, 4 and 8 blocks solved 4 000 and 25 000
/// 2-d blobs alike.
const BLOCK_CHUNK: usize = 4;

/// The simulated GPU runs its launches on the executor's workers: the
/// launch's blocks in `BLOCK_CHUNK`-sized claims of
/// [`Executor::map_ranges_into`], inline with one worker or one claim.
/// Its result slots are `()`, and a `Vec` of zero-sized slots never
/// allocates, so a launch allocates nothing.
impl BlockRunner for Executor {
    fn run(&self, tasks: usize, body: &(dyn Fn(Range<usize>) + Sync)) {
        let mut claims = vec![(); tasks.div_ceil(BLOCK_CHUNK)];
        self.map_ranges_into(tasks, BLOCK_CHUNK, &mut claims, body);
    }
}

/// Reinterpret a fully initialized `Vec<MaybeUninit<R>>` as `Vec<R>`.
///
/// # Safety
/// Every element must have been initialized.
unsafe fn assume_init_vec<R>(v: Vec<MaybeUninit<R>>) -> Vec<R> {
    let mut v = std::mem::ManuallyDrop::new(v);
    Vec::from_raw_parts(v.as_mut_ptr() as *mut R, v.len(), v.capacity())
}

#[cfg(test)]
mod tests {
    use super::*;
    use egg_gpu_sim::{Device, DeviceConfig, KernelStats};

    #[test]
    fn map_ranges_covers_everything_in_order() {
        for workers in [1, 2, 7] {
            let exec = Executor::new(Some(workers));
            let got = exec.map_ranges(10, 3, |r| r.collect::<Vec<_>>());
            assert_eq!(
                got,
                vec![vec![0, 1, 2], vec![3, 4, 5], vec![6, 7, 8], vec![9]],
                "{exec:?}"
            );
        }
    }

    #[test]
    fn map_chunks_mut_writes_disjoint_chunks() {
        for workers in [1, 3, 16] {
            let exec = Executor::new(Some(workers));
            let mut data = vec![0usize; 100];
            let offsets = exec.map_chunks_mut(&mut data, 7, |offset, chunk| {
                for (i, x) in chunk.iter_mut().enumerate() {
                    *x = offset + i;
                }
                offset
            });
            assert_eq!(data, (0..100).collect::<Vec<_>>(), "{exec:?}");
            assert_eq!(offsets, (0..100).step_by(7).collect::<Vec<_>>());
        }
    }

    #[test]
    fn reductions_are_identical_across_worker_counts() {
        // the floating-point sum must associate identically for any width
        let values: Vec<f64> = (0..10_000).map(|i| (i as f64).sin() * 1e-3).collect();
        let reduce = |exec: &Executor| -> f64 {
            exec.map_ranges(values.len(), POINT_CHUNK, |r| {
                r.map(|i| values[i]).sum::<f64>()
            })
            .iter()
            .sum()
        };
        let reference = reduce(&Executor::sequential());
        for workers in [2, 3, 8] {
            let exec = Executor::new(Some(workers));
            assert_eq!(reduce(&exec).to_bits(), reference.to_bits(), "{exec:?}");
        }
    }

    #[test]
    fn all_matches_sequential_verdict() {
        for workers in [1, 4] {
            let exec = Executor::new(Some(workers));
            assert!(exec.all(5000, 64, |i| i < 5000));
            assert!(!exec.all(5000, 64, |i| i != 4321));
            assert!(exec.all(0, 64, |_| false), "vacuous truth on empty domain");
        }
    }

    #[test]
    fn empty_inputs() {
        let exec = Executor::new(Some(4));
        assert!(exec.map_ranges(0, 8, |_| 0u32).is_empty());
        let mut empty: Vec<u64> = Vec::new();
        assert!(exec.map_chunks_mut(&mut empty, 8, |_, _| 0u32).is_empty());
        let mut out = [0u32; 4];
        assert_eq!(exec.map_ranges_into(0, 8, &mut out, |_| 1u32), 0);
        assert_eq!(out, [0; 4]);
    }

    #[test]
    fn map_ranges_into_matches_map_ranges() {
        for workers in [1, 3, 8] {
            let exec = Executor::new(Some(workers));
            let expected = exec.map_ranges(100, 7, |r| r.sum::<usize>());
            let mut out = vec![0usize; expected.len() + 2];
            let n_chunks = exec.map_ranges_into(100, 7, &mut out, |r| r.sum::<usize>());
            assert_eq!(n_chunks, expected.len(), "{exec:?}");
            assert_eq!(&out[..n_chunks], &expected[..]);
        }
    }

    #[test]
    #[should_panic(expected = "result slots")]
    fn map_ranges_into_rejects_short_output() {
        let mut out = [0usize; 1];
        Executor::sequential().map_ranges_into(100, 7, &mut out, |r| r.len());
    }

    #[test]
    fn scatter_writer_permutation_scatter() {
        // chunks write rows addressed through a permutation — the exact
        // shape of the grid-sorted update
        let n = 1000usize;
        let perm: Vec<usize> = (0..n).map(|i| (i * 7) % n).collect();
        for workers in [1, 4] {
            let exec = Executor::new(Some(workers));
            let mut data = vec![0usize; n];
            let writer = ScatterWriter::new(&mut data);
            let writer = &writer;
            let perm = &perm;
            exec.map_ranges(n, 64, |range| {
                for e in range {
                    let row = perm[e];
                    unsafe { writer.row_mut(row, 1)[0] = row + 1 };
                }
            });
            assert_eq!(data, (1..=n).collect::<Vec<_>>(), "{exec:?}");
        }
    }

    #[test]
    fn worker_count_defaults_and_clamps() {
        assert!(Executor::new(None).workers() >= 1);
        assert_eq!(Executor::new(Some(0)).workers(), 1);
        assert_eq!(Executor::sequential().workers(), 1);
        // one worker runs inline and never needs a pool; more park all
        // but the caller
        assert!(Executor::sequential().pool.is_none());
        assert!(Executor::new(Some(1)).pool.is_none());
        assert_eq!(live_workers(&Executor::new(Some(4))), 3);
    }

    /// `EGG_THREADS` takes a positive integer after trimming and refuses
    /// anything else, naming the variable and its value.
    #[test]
    fn threads_env_parse() {
        let parse = |value: &str| parse_count("EGG_THREADS", value.as_ref());
        assert_eq!(parse("4"), Ok(4));
        assert_eq!(parse(" 12 "), Ok(12));
        for value in ["0", "-3", "many", ""] {
            let refusal = format!("EGG_THREADS={value:?}: want a positive integer");
            assert_eq!(parse(value), Err(refusal));
        }
    }

    #[test]
    fn dispatch_stats_count_parallel_dispatches_only() {
        let exec = Executor::new(Some(4));
        assert_eq!(exec.dispatch_count(), 0);
        exec.map_ranges(10, 100, |r| r.len()); // one chunk: inline
        assert_eq!(exec.dispatch_count(), 0);
        exec.map_ranges(1000, 10, |r| r.len());
        assert_eq!(exec.dispatch_count(), 1);
        let mut out = vec![0usize; 128];
        exec.map_ranges_into(1000, 10, &mut out, |r| r.len());
        assert_eq!(exec.dispatch_count(), 2);
        // clones share the dispatch instrumentation (and the pool)
        let clone = exec.clone();
        clone.all(1000, 10, |_| true);
        assert_eq!(exec.dispatch_count(), 3);
    }

    #[test]
    fn pool_reuse_across_many_tiny_dispatches() {
        // the steady-state shape: hundreds of dispatches on one executor;
        // every epoch must retire cleanly (no lost wakeups, no deadlock)
        let exec = Executor::new(Some(8));
        let mut out = vec![0usize; 16];
        for round in 0..500 {
            let n_chunks = exec.map_ranges_into(256, 16, &mut out, |r| r.start + round);
            assert_eq!(n_chunks, 16);
            assert_eq!(out[3], 48 + round);
        }
        assert_eq!(exec.dispatch_count(), 500);
    }

    /// Live pool workers, as the next dispatch will count them.
    fn live_workers(exec: &Executor) -> usize {
        lock(
            &exec
                .pool
                .as_ref()
                .expect("a multi-worker executor")
                .shared
                .state,
        )
        .alive
    }

    #[test]
    fn pooled_worker_panic_propagates_and_pool_survives() {
        let exec = Executor::new(Some(4));
        assert_eq!(live_workers(&exec), 3);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            exec.map_ranges(1000, 10, |r| {
                assert!(r.start != 500, "intentional test panic");
                r.len()
            })
        }));
        let payload = caught.expect_err("chunk panic must propagate to the caller");
        // a worker's panic costs the pool that worker, and it has left the
        // live count by the time the dispatch returns; the caller's own
        // chunk panicking costs nothing. The payload tells which it was:
        // the caller's comes through as is.
        let from_worker = payload
            .downcast_ref::<&str>()
            .is_some_and(|m| m.contains("pool worker panicked"));
        assert_eq!(live_workers(&exec), if from_worker { 2 } else { 3 });
        // the pool must still dispatch correctly afterwards
        let sums = exec.map_ranges(100, 7, |r| r.sum::<usize>());
        assert_eq!(sums.iter().sum::<usize>(), (0..100).sum::<usize>());
    }

    /// A simulated GPU that runs its launches on `exec`.
    fn device_on(exec: &Executor) -> Device {
        Device::with_runner(DeviceConfig::default(), Arc::new(exec.clone()))
    }

    /// `(name, threads, reads, writes, atomics)` of every kernel in the log.
    fn kernel_counts(device: &Device) -> Vec<(&'static str, u64, u64, u64, u64)> {
        let kernels = device.report().kernels;
        let counts = |k: &KernelStats| (k.name, k.threads, k.reads, k.writes, k.atomics);
        kernels.iter().map(counts).collect()
    }

    #[test]
    fn a_launch_from_inside_a_kernel_runs_inline() {
        // block 0 of a pooled launch on `a` launches on `b`, which runs on
        // the same, busy pool: the nested launch must run its blocks on
        // the launching thread instead of dispatching into the pool
        let exec = Executor::new(Some(2));
        let (a, b) = (device_on(&exec), device_on(&exec));
        let (on_a, on_b) = (a.alloc::<u64>(1024), b.alloc::<u64>(1024));
        a.launch("outer", 8, 128, |t| {
            on_a.atomic_inc(t.global_id());
            if t.global_id() == 0 {
                b.launch("inner", 8, 128, |u| {
                    on_b.atomic_inc(u.global_id());
                });
            }
        });
        assert_eq!(exec.dispatch_count(), 1, "only the outer launch dispatches");
        let hits = [on_a.to_vec(), on_b.to_vec()].concat();
        assert!(hits.iter().all(|&h| h == 1), "every thread ran once");
        assert_eq!(kernel_counts(&a), [("outer", 1024, 0, 0, 1024)]);
        assert_eq!(kernel_counts(&b), [("inner", 1024, 0, 0, 1024)]);
    }

    #[test]
    fn a_panicking_kernel_propagates_and_later_launches_count_exactly() {
        let exec = Executor::new(Some(2));
        let device = device_on(&exec);
        let buf = device.alloc::<u64>(1024);
        let faulted = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            device.launch("faults", 8, 128, |t| {
                buf.store(t.global_id(), 1);
                assert!(t.global_id() != 700, "simulated kernel fault");
            });
        }));
        assert!(faulted.is_err(), "the kernel's panic must reach the launch");
        assert_eq!(kernel_counts(&device), [], "a faulted launch is not logged");
        device.reset();
        device.launch("after", 8, 128, |t| {
            let i = t.global_id();
            buf.store(i, buf.load(i) + 1);
            buf.atomic_inc(0);
        });
        assert_eq!(kernel_counts(&device), [("after", 1024, 1024, 1024, 1024)]);
        // both launches dispatched: the unwind closed the calling thread's
        // counter batch, so the second launch did not run inline
        assert_eq!(exec.dispatch_count(), 2);
    }
}
