//! The execution layer: a persistent worker pool plus a recycling buffer
//! pool (DESIGN.md §11).
//!
//! Two costs dominate the training loop once the math itself is tight:
//! allocator churn (every tape node owns a freshly allocated `Vec<f32>`,
//! thrown away when the per-batch graph is dropped) and serial kernels. The
//! [`Executor`] removes both without changing any numerical result:
//!
//! * a [`BufferPool`](Executor::alloc_zeroed) recycles node-value and
//!   gradient buffers in power-of-two size classes, so steady-state training
//!   performs no per-step buffer allocations once every size class has been
//!   seen (observable via [`Executor::stats`]);
//! * [`Executor::parallel_for`] dispatches *row-sharded* work to a small
//!   pool of persistent worker threads. Every output row is computed
//!   entirely by one worker with exactly the serial per-row code, so the
//!   per-element accumulation order is unchanged and results are **bitwise
//!   identical** to the serial path at any thread count.
//!
//! Thread count comes from `TFMAE_THREADS` (if set) or
//! [`std::thread::available_parallelism`]; `Executor::serial()` spawns no
//! threads at all and is the default for ad-hoc graphs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;

use tfmae_obs::{Counter, Gauge, Instrument, Registry};

/// Environment variable overriding the worker-pool size.
pub const THREADS_ENV: &str = "TFMAE_THREADS";

/// Minimum total task work (multiply-adds) before a kernel fans out to the
/// worker pool ([`gated_min_chunk`]).
/// The original 256 Ki gate still let small shapes overshard —
/// bmm_8x64x64x64 (2 Mi flops) recorded 0.78× and train_epoch_tiny 0.65× at
/// 4 threads — so the gate sits at 4 Mi: below it the wake/shard round-trip
/// costs more than the arithmetic and the task runs inline on the caller,
/// while cache-resident medium matmuls (≥ ~5 Mi flops) still fan out.
/// Serving-side multi-core throughput comes from the serving engine's
/// scoring lanes (one serial executor per pool thread, each running whole
/// forwards), not from sharding small per-window kernels.
///
/// The gate was first tuned on a 1-core host. Re-measured on 2 cores
/// (Intel Xeon, 2 executor threads; `B = 3` eval forward + score of the
/// harness config, median of 6 alternating runs): a 512 Ki gate fanned
/// the forward's small matmuls out and took matmul from 4.8 ms to 5.2 ms
/// per forward, so 4 Mi stays on evidence from a multi-core host too
/// (DESIGN.md §11).
pub const MIN_PAR_FLOPS: usize = 4 * 1024 * 1024;

/// Smallest pooled buffer capacity (floats): `1 << MIN_CLASS`.
const MIN_CLASS: u32 = 6;

/// Snapshot of executor counters (dispatch + buffer-pool activity).
///
/// Surfaced in `TrainReport` by `tfmae-core` so pooling stays observable:
/// `Graph::activation_bytes()` keeps reporting the *live* tape bytes, while
/// `arena_bytes`/`peak_arena_bytes` account for recycled capacity parked in
/// the pool between steps.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Worker-pool width (1 = serial, no worker threads).
    pub threads: usize,
    /// Total `parallel_for` dispatches (including ones that ran inline).
    pub tasks_dispatched: u64,
    /// Dispatches that actually fanned out to the worker pool.
    pub parallel_tasks: u64,
    /// Buffer requests served from the free lists.
    pub pool_hits: u64,
    /// Buffer requests that had to allocate.
    pub pool_misses: u64,
    /// Total capacity bytes returned to the pool over its lifetime.
    pub bytes_recycled: u64,
    /// Capacity bytes currently parked in the free lists.
    pub arena_bytes: u64,
    /// High-water mark of `arena_bytes`.
    pub peak_arena_bytes: u64,
}

/// Sums two executors' activity — e.g. a serving engine's lane executors
/// and its detector's. Counters and arena bytes add (the summed peak is an
/// upper bound on the joint peak); `threads` keeps the wider pool.
impl std::ops::Add for ExecStats {
    type Output = ExecStats;

    fn add(self, o: ExecStats) -> ExecStats {
        ExecStats {
            threads: self.threads.max(o.threads),
            tasks_dispatched: self.tasks_dispatched + o.tasks_dispatched,
            parallel_tasks: self.parallel_tasks + o.parallel_tasks,
            pool_hits: self.pool_hits + o.pool_hits,
            pool_misses: self.pool_misses + o.pool_misses,
            bytes_recycled: self.bytes_recycled + o.bytes_recycled,
            arena_bytes: self.arena_bytes + o.arena_bytes,
            peak_arena_bytes: self.peak_arena_bytes + o.peak_arena_bytes,
        }
    }
}

impl ExecStats {
    /// Hit rate of the buffer pool in `[0, 1]` (1.0 when no requests yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.pool_hits + self.pool_misses;
        if total == 0 {
            1.0
        } else {
            self.pool_hits as f64 / total as f64
        }
    }
}

/// One power-of-two capacity class: its free list plus how many of its
/// buffers are lent out now and at most. The free list never holds more
/// than `peak_out` buffers — enough to serve the class's highest
/// concurrent demand without a miss, and no more. Buffers the pool never
/// lent (graph constants built from caller `Vec`s) are recycled too, so
/// without this cap every step would park its constants and the arena
/// would grow with the work done rather than with the work in flight.
#[derive(Default)]
struct Bucket {
    free: Vec<Vec<f32>>,
    /// Buffers of this class handed out and not yet returned. Returns
    /// saturate at 0: a foreign buffer is indistinguishable from a lent
    /// one, so it counts as a return.
    out: usize,
    /// High-water mark of `out`: the free-list cap.
    peak_out: usize,
}

/// Buffer free lists, bucketed by power-of-two capacity class. Counters
/// live outside as executor-level `tfmae_obs` instruments so they can be
/// published to a metrics registry without holding this lock.
struct Pool {
    buckets: Vec<Bucket>,
}

impl Pool {
    fn new() -> Self {
        Self { buckets: Vec::new() }
    }

    fn bucket(&mut self, class: u32) -> &mut Bucket {
        let idx = (class - MIN_CLASS) as usize;
        if self.buckets.len() <= idx {
            self.buckets.resize_with(idx + 1, Bucket::default);
        }
        &mut self.buckets[idx]
    }
}

/// Smallest class `c` with `1 << c >= len` (requires `len >= 1`).
fn class_for_len(len: usize) -> u32 {
    let c = usize::BITS - (len - 1).leading_zeros();
    c.max(MIN_CLASS)
}

/// Largest class `c` with `1 << c <= cap`, if `cap` reaches the smallest
/// class; a recycled buffer of capacity `cap` can serve any request of
/// class `<= c`.
fn class_for_cap(cap: usize) -> Option<u32> {
    if cap < (1usize << MIN_CLASS) {
        return None;
    }
    Some(usize::BITS - 1 - cap.leading_zeros())
}

/// One `parallel_for` dispatch: a lifetime-erased closure plus a list of
/// `[start, end)` chunks claimed atomically by whoever gets there first
/// (the caller participates too). The caller blocks until every chunk has
/// completed, which is what makes the lifetime erasure sound: `func` is
/// never dereferenced after the final chunk reports done.
struct Job {
    func: &'static (dyn Fn(usize, usize) + Sync),
    chunks: Vec<(usize, usize)>,
    next: AtomicUsize,
    done: Mutex<usize>,
    cv: Condvar,
    panicked: AtomicBool,
}

impl Job {
    fn run_chunks(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.chunks.len() {
                return;
            }
            let (s, e) = self.chunks[i];
            if catch_unwind(AssertUnwindSafe(|| (self.func)(s, e))).is_err() {
                self.panicked.store(true, Ordering::SeqCst);
            }
            let mut done = self.done.lock().expect("executor job lock");
            *done += 1;
            if *done == self.chunks.len() {
                self.cv.notify_all();
            }
        }
    }

    fn wait(&self) {
        let mut done = self.done.lock().expect("executor job lock");
        while *done < self.chunks.len() {
            done = self.cv.wait(done).expect("executor job wait");
        }
    }
}

/// Persistent worker pool + buffer pool shared by every [`Graph`]
/// (`crate::Graph`) that was created with `Graph::with_executor`.
///
/// Cheap to create in serial mode (no threads are spawned); an N-thread
/// executor spawns `N − 1` workers once and reuses them for every dispatch.
/// Dropping the executor joins the workers.
pub struct Executor {
    threads: usize,
    senders: Mutex<Vec<mpsc::Sender<Arc<Job>>>>,
    handles: Mutex<Vec<thread::JoinHandle<()>>>,
    pool: Mutex<Pool>,
    // Per-instance observability instruments (always recording — they are
    // the executor's own counters, not gated global telemetry). A serving
    // or training process publishes the instance that matters via
    // [`Executor::register_obs`].
    tasks_dispatched: Arc<Counter>,
    parallel_tasks: Arc<Counter>,
    pool_hits: Arc<Counter>,
    pool_misses: Arc<Counter>,
    bytes_recycled: Arc<Counter>,
    arena_bytes: Arc<Gauge>,
    peak_arena_bytes: Arc<Gauge>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor").field("threads", &self.threads).finish()
    }
}

impl Default for Executor {
    fn default() -> Self {
        Self::serial()
    }
}

impl Executor {
    /// A single-threaded executor: every dispatch runs inline, only the
    /// buffer pool is active. Spawns no threads.
    pub fn serial() -> Self {
        Self::with_threads(1)
    }

    /// An executor with an explicit pool width (`n` is clamped to `>= 1`;
    /// `n` threads means `n − 1` persistent workers plus the caller).
    pub fn with_threads(n: usize) -> Self {
        let threads = n.max(1);
        let mut senders = Vec::new();
        let mut handles = Vec::new();
        for wi in 1..threads {
            let (tx, rx) = mpsc::channel::<Arc<Job>>();
            let handle = thread::Builder::new()
                .name(format!("tfmae-exec-{wi}"))
                .spawn(move || {
                    while let Ok(job) = rx.recv() {
                        job.run_chunks();
                    }
                })
                .expect("spawn executor worker");
            senders.push(tx);
            handles.push(handle);
        }
        Self {
            threads,
            senders: Mutex::new(senders),
            handles: Mutex::new(handles),
            pool: Mutex::new(Pool::new()),
            tasks_dispatched: Arc::new(Counter::new()),
            parallel_tasks: Arc::new(Counter::new()),
            pool_hits: Arc::new(Counter::new()),
            pool_misses: Arc::new(Counter::new()),
            bytes_recycled: Arc::new(Counter::new()),
            arena_bytes: Arc::new(Gauge::new()),
            peak_arena_bytes: Arc::new(Gauge::new()),
        }
    }

    /// Pool width from [`THREADS_ENV`] if set (and `>= 1`), otherwise
    /// [`std::thread::available_parallelism`].
    pub fn from_env() -> Self {
        let n = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| thread::available_parallelism().map(|p| p.get()).unwrap_or(1));
        Self::with_threads(n)
    }

    /// Worker-pool width (1 = serial).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether a workload of `n` items with this minimum chunk size would
    /// actually fan out (used by callers to pick an allocation strategy).
    pub fn parallel_beneficial(&self, n: usize, min_per_chunk: usize) -> bool {
        self.threads > 1 && n >= 2 * min_per_chunk.max(1)
    }

    /// Runs `f(start, end)` over a partition of `0..n` into contiguous
    /// chunks of at least `min_per_chunk` items.
    ///
    /// The chunk boundaries are an implementation detail: callers must shard
    /// so that any partition yields identical results (e.g. one output row
    /// per index, written entirely by whichever worker claims it). Runs
    /// inline (single call `f(0, n)`) when the executor is serial or the
    /// workload is below the fan-out threshold.
    ///
    /// # Panics
    /// Re-raises (as a panic in the calling thread) if any chunk panicked.
    pub fn parallel_for(&self, n: usize, min_per_chunk: usize, f: &(dyn Fn(usize, usize) + Sync)) {
        if n == 0 {
            return;
        }
        self.tasks_dispatched.inc();
        let min = min_per_chunk.max(1);
        if self.threads == 1 || n < 2 * min {
            f(0, n);
            return;
        }
        let n_chunks = self.threads.min(n / min);
        let base = n / n_chunks;
        let rem = n % n_chunks;
        let mut chunks = Vec::with_capacity(n_chunks);
        let mut s = 0;
        for i in 0..n_chunks {
            let e = s + base + usize::from(i < rem);
            chunks.push((s, e));
            s = e;
        }
        debug_assert_eq!(s, n);

        // SAFETY (lifetime erasure): the job holds a `'static` view of `f`,
        // but `wait()` below blocks until every chunk has run, and workers
        // never touch `func` after claiming past the end of `chunks` — so
        // `f` strictly outlives every dereference.
        let func: &'static (dyn Fn(usize, usize) + Sync) = unsafe { std::mem::transmute(f) };
        let job = Arc::new(Job {
            func,
            chunks,
            next: AtomicUsize::new(0),
            done: Mutex::new(0),
            cv: Condvar::new(),
            panicked: AtomicBool::new(false),
        });
        self.parallel_tasks.inc();
        {
            let senders = self.senders.lock().expect("executor senders lock");
            for tx in senders.iter() {
                let _ = tx.send(job.clone());
            }
        }
        job.run_chunks();
        job.wait();
        assert!(!job.panicked.load(Ordering::SeqCst), "executor worker panicked during parallel_for");
    }

    /// [`parallel_for`](Self::parallel_for) over `K` buffers that each hold
    /// `n` equal groups of items (`buf.len() / n` items per group): every
    /// call `f(start, end, parts)` gets, per buffer, the `&mut` slice of
    /// groups `[start, end)`. The chunks partition `0..n`, so no two calls'
    /// slices overlap. This is the one place a `parallel_for` chunk becomes
    /// disjoint `&mut` data: row-sharded kernels split output rows through
    /// it, the serving engine its per-stream ingest tasks.
    ///
    /// # Panics
    /// If a buffer's length is not a multiple of `n`, or as
    /// [`parallel_for`](Self::parallel_for).
    pub fn parallel_for_mut<T: Send, const K: usize>(
        &self,
        n: usize,
        min_per_chunk: usize,
        bufs: [&mut [T]; K],
        f: &ChunkMutFn<'_, T, K>,
    ) {
        if n == 0 {
            return;
        }
        let parts = bufs.map(|b| {
            let len = b.len();
            assert!(len % n == 0, "parallel_for_mut: {len} items do not split into {n} groups");
            (SendPtr(b.as_mut_ptr()), len / n)
        });
        self.parallel_for(n, min_per_chunk, &|s, e| {
            let slices = std::array::from_fn(|i| {
                let (p, width) = &parts[i];
                // SAFETY: `parallel_for` hands each call a disjoint range
                // `[s, e)` of `0..n` and blocks until every chunk returned.
                // Buffer `i` holds `n` groups of `width` items and stays
                // mutably borrowed for this whole call, so groups `[s, e)`
                // lie inside it and no other live slice covers them.
                unsafe { std::slice::from_raw_parts_mut(p.0.add(s * width), (e - s) * width) }
            });
            f(s, e, slices);
        });
    }

    // -------------------------------------------------------------- buffers

    /// A zero-filled buffer of length `n` from the pool (capacity is the
    /// next power of two). Used for outputs written by index (kernels).
    pub fn alloc_zeroed(&self, n: usize) -> Vec<f32> {
        let mut v = self.alloc_empty(n);
        v.resize(n, 0.0);
        v
    }

    /// An empty buffer with capacity `>= n` from the pool. Used for outputs
    /// built by `push`/`extend` so untouched capacity is never initialized.
    pub fn alloc_empty(&self, n: usize) -> Vec<f32> {
        if n == 0 {
            return Vec::new();
        }
        let class = class_for_len(n);
        let reused = {
            let mut pool = self.pool.lock().expect("buffer pool lock");
            let bucket = pool.bucket(class);
            bucket.out += 1;
            bucket.peak_out = bucket.peak_out.max(bucket.out);
            match bucket.free.pop() {
                Some(buf) => {
                    self.pool_hits.inc();
                    self.arena_bytes.add(-((buf.capacity() * std::mem::size_of::<f32>()) as i64));
                    Some(buf)
                }
                None => {
                    self.pool_misses.inc();
                    None
                }
            }
        };
        match reused {
            Some(mut buf) => {
                buf.clear();
                buf
            }
            None => Vec::with_capacity(1usize << class),
        }
    }

    /// Returns a buffer to the pool (its contents are discarded). Buffers
    /// too small for the smallest size class, or arriving when their class
    /// already parks as many buffers as it ever had lent out at once, are
    /// simply dropped — so the arena is bounded by peak demand, however
    /// many foreign buffers are recycled.
    pub fn recycle(&self, buf: Vec<f32>) {
        let cap = buf.capacity();
        let Some(class) = class_for_cap(cap) else { return };
        let bytes = (cap * std::mem::size_of::<f32>()) as u64;
        let mut pool = self.pool.lock().expect("buffer pool lock");
        self.bytes_recycled.add(bytes);
        let bucket = pool.bucket(class);
        bucket.out = bucket.out.saturating_sub(1);
        if bucket.free.len() < bucket.peak_out {
            bucket.free.push(buf);
            // Still under the pool lock, so arena/peak stay exact.
            self.arena_bytes.add(bytes as i64);
            self.peak_arena_bytes.raise_to(self.arena_bytes.get());
        }
    }

    /// Current counter snapshot (cumulative since the executor was created).
    /// A thin view over the executor's `tfmae_obs` instruments — the same
    /// values [`Executor::register_obs`] publishes to a metrics registry.
    pub fn stats(&self) -> ExecStats {
        ExecStats {
            threads: self.threads,
            tasks_dispatched: self.tasks_dispatched.get(),
            parallel_tasks: self.parallel_tasks.get(),
            pool_hits: self.pool_hits.get(),
            pool_misses: self.pool_misses.get(),
            bytes_recycled: self.bytes_recycled.get(),
            arena_bytes: self.arena_bytes.get().max(0) as u64,
            peak_arena_bytes: self.peak_arena_bytes.get().max(0) as u64,
        }
    }

    /// Publishes this executor's instruments into `reg` under the `exec.*`
    /// names (last registration wins). Call once on the executor that
    /// matters to the process — e.g. the serving engine's — so its dispatch
    /// and pool activity show up in exported metrics; per-instance `stats()`
    /// keeps working for every executor regardless.
    pub fn register_obs(&self, reg: &Registry) {
        reg.gauge("exec.threads").set(self.threads as i64);
        reg.register("exec.tasks_dispatched", Instrument::Counter(self.tasks_dispatched.clone()));
        reg.register("exec.parallel_tasks", Instrument::Counter(self.parallel_tasks.clone()));
        reg.register("exec.pool.hits", Instrument::Counter(self.pool_hits.clone()));
        reg.register("exec.pool.misses", Instrument::Counter(self.pool_misses.clone()));
        reg.register("exec.pool.bytes_recycled", Instrument::Counter(self.bytes_recycled.clone()));
        reg.register("exec.pool.arena_bytes", Instrument::Gauge(self.arena_bytes.clone()));
        reg.register("exec.pool.peak_arena_bytes", Instrument::Gauge(self.peak_arena_bytes.clone()));
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        if let Ok(mut senders) = self.senders.lock() {
            senders.clear(); // workers see a closed channel and exit
        }
        if let Ok(mut handles) = self.handles.lock() {
            for h in handles.drain(..) {
                let _ = h.join();
            }
        }
    }
}

/// The `min_per_chunk` that gates a task of `n` items on its total `work`:
/// below `gate` every item lands in one chunk, so the task runs inline on
/// the caller (still counted in `tasks_dispatched`, never in
/// `parallel_tasks`); at or above it, chunks of `min_per_chunk`. Kernels
/// gate on [`MIN_PAR_FLOPS`], so tiny matmuls never pay a wake-up that
/// costs more than their arithmetic; the serving engine gates a tick's
/// ingest on its own constant.
pub fn gated_min_chunk(n: usize, min_per_chunk: usize, work: usize, gate: usize) -> usize {
    if work < gate {
        n.max(1)
    } else {
        min_per_chunk
    }
}

/// The body [`Executor::parallel_for_mut`] runs per chunk:
/// `(start, end, parts)`, one `&mut` part per buffer.
type ChunkMutFn<'f, T, const K: usize> = dyn Fn(usize, usize, [&mut [T]; K]) + Sync + 'f;

/// The base pointer of one buffer [`Executor::parallel_for_mut`] splits
/// into disjoint per-chunk slices.
struct SendPtr<T>(*mut T);

// SAFETY: workers only rebuild slices over disjoint groups of the buffer
// (see `parallel_for_mut`), so sharing the pointer hands each thread `&mut`
// access to items no other thread touches — sound whenever `&mut T` may
// cross threads, i.e. `T: Send`.
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_classes_round_trip() {
        assert_eq!(class_for_len(1), MIN_CLASS);
        assert_eq!(class_for_len(64), MIN_CLASS);
        assert_eq!(class_for_len(65), 7);
        assert_eq!(class_for_len(1024), 10);
        assert_eq!(class_for_len(1025), 11);
        // A pool-allocated buffer always lands back in the class it serves.
        for len in [1usize, 7, 64, 100, 4096, 5000] {
            let cap = 1usize << class_for_len(len);
            assert_eq!(class_for_cap(cap), Some(class_for_len(len)));
        }
        assert_eq!(class_for_cap(0), None);
        assert_eq!(class_for_cap(63), None);
    }

    #[test]
    fn pool_recycles_buffers() {
        let ex = Executor::serial();
        let a = ex.alloc_zeroed(100);
        assert_eq!(a.len(), 100);
        assert!(a.iter().all(|&x| x == 0.0));
        let cap = a.capacity();
        ex.recycle(a);
        let b = ex.alloc_zeroed(100);
        assert_eq!(b.capacity(), cap, "same size class must reuse the buffer");
        let st = ex.stats();
        assert_eq!(st.pool_hits, 1);
        assert_eq!(st.pool_misses, 1);
        assert!(st.bytes_recycled > 0);
    }

    #[test]
    fn steady_state_has_no_misses() {
        let ex = Executor::serial();
        for _ in 0..3 {
            let bufs: Vec<_> = (0..10).map(|i| ex.alloc_zeroed(64 * (i + 1))).collect();
            for b in bufs {
                ex.recycle(b);
            }
        }
        let st = ex.stats();
        // All 10 buffers of the first round are live at once, so each one
        // allocates; later rounds are all hits.
        assert_eq!(st.pool_misses, 10);
        assert_eq!(st.pool_hits, 20);
        assert!((st.hit_rate() - st.pool_hits as f64 / (st.pool_hits + st.pool_misses) as f64).abs() < 1e-12);
    }

    #[test]
    fn foreign_buffers_cannot_grow_the_arena_past_peak_demand() {
        // Each step lends 10 buffers over four size classes, then hands
        // them back mixed with 100 buffers the pool never lent — as a graph
        // reset does with constants built from caller `Vec`s. Half of the
        // foreign buffers fall in a lent class, half in classes never lent.
        let ex = Executor::serial();
        let len = |i: usize| 64usize << (i % 4);
        let peak_bytes: u64 = (0..10).map(|i| (len(i) * 4) as u64).sum();
        for step in 0..20 {
            let lent: Vec<_> = (0..10).map(|i| ex.alloc_zeroed(len(i))).collect();
            for (i, buf) in lent.into_iter().enumerate() {
                for j in 0..5 {
                    ex.recycle(vec![0.0f32; len(i)]);
                    ex.recycle(vec![0.0f32; 4096 << j]);
                }
                ex.recycle(buf);
            }
            let st = ex.stats();
            assert_eq!(st.arena_bytes, peak_bytes, "step {step}: arena must sit at peak demand");
            assert_eq!(st.pool_misses, 10, "step {step}: only the cold step may miss");
        }
        assert_eq!(ex.stats().pool_hits, 190);
        assert_eq!(ex.stats().peak_arena_bytes, peak_bytes);
    }

    #[test]
    fn alloc_empty_has_capacity_but_no_len() {
        let ex = Executor::serial();
        let v = ex.alloc_empty(100);
        assert!(v.is_empty());
        assert!(v.capacity() >= 100);
        assert!(ex.alloc_empty(0).capacity() == 0);
    }

    #[test]
    fn parallel_for_covers_every_index_once() {
        for threads in [1, 2, 4] {
            let ex = Executor::with_threads(threads);
            let n = 1000;
            let mut rows = vec![0.0f32; n * 3];
            ex.parallel_for_mut(n, 1, [&mut rows[..]], &|s, e, [part]| {
                assert_eq!(part.len(), (e - s) * 3);
                for (i, slot) in part.iter_mut().enumerate() {
                    *slot += (s * 3 + i) as f32;
                }
            });
            let want: Vec<f32> = (0..n * 3).map(|i| i as f32).collect();
            assert_eq!(rows, want, "threads={threads}");
        }
    }

    #[test]
    fn small_workloads_run_inline() {
        let ex = Executor::with_threads(4);
        let hits = AtomicUsize::new(0);
        ex.parallel_for(8, 100, &|s, e| {
            assert_eq!((s, e), (0, 8));
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        let st = ex.stats();
        assert_eq!(st.tasks_dispatched, 1);
        assert_eq!(st.parallel_tasks, 0);
    }

    #[test]
    fn flops_gate_runs_small_tasks_inline() {
        let ex = Executor::with_threads(4);
        let gated = |flops| gated_min_chunk(1000, 1, flops, MIN_PAR_FLOPS);
        // Plenty of rows and a tiny min chunk, but total work below the
        // flop gate: must run inline as a single chunk.
        ex.parallel_for(1000, gated(MIN_PAR_FLOPS - 1), &|s, e| {
            assert_eq!((s, e), (0, 1000));
        });
        let st = ex.stats();
        assert_eq!((st.tasks_dispatched, st.parallel_tasks), (1, 0));
        // At or above the gate the same shape fans out.
        ex.parallel_for(1000, gated(MIN_PAR_FLOPS), &|_, _| {});
        let st = ex.stats();
        assert_eq!((st.tasks_dispatched, st.parallel_tasks), (2, 1));
    }

    #[test]
    fn env_override_is_respected() {
        // Avoid process-global env mutation: exercise the parse path only.
        let ex = Executor::with_threads(3);
        assert_eq!(ex.threads(), 3);
        assert_eq!(Executor::with_threads(0).threads(), 1);
    }
}
