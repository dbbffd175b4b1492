//! The streaming interval core model.

use crate::config::CoreConfig;
use crate::report::{CoreReport, ResourceStalls};
use vstress_bpred::{BranchPredictor, Gshare};
use vstress_cache::{Hierarchy, HierarchyConfig, ServiceLevel};
use vstress_trace::stream::decode_chunk;
use vstress_trace::{AddressCanonicalizer, EventStream, Kernel, Probe, ProbeEvent};

/// An interval-model out-of-order core consuming an instrumented encode.
///
/// `CoreModel` implements [`Probe`], so an encoder run against it is
/// "executed on" the modelled machine: every abstract instruction advances
/// the pipeline at the kernel's ILP-limited rate, branch outcomes train an
/// embedded predictor (default: an 8 KB TAGE, standing in for Broadwell's
/// branch unit), data addresses walk the cache hierarchy, and a synthetic
/// fetch stream walks each kernel's code region through the L1I.
///
/// Call [`CoreModel::into_report`] when the run completes.
#[derive(Debug)]
pub struct CoreModel<B: BranchPredictor = Gshare> {
    config: CoreConfig,
    hierarchy: Hierarchy,
    predictor: B,

    retired: u64,
    cycles: f64,
    loads: u64,
    stores: u64,
    branches: u64,
    mispredicts: u64,

    slots_bad_spec: f64,
    slots_frontend: f64,
    slots_backend_mem: f64,
    slots_backend_core: f64,
    stalls: ResourceStalls,

    kernel: Kernel,
    /// `1 / kernel_ilp(kernel)` — cycles per instruction at the current
    /// kernel's ILP limit.
    cur_cost: f64,
    /// `(cur_cost - 1.0 / width).max(0.0) * width` — the backend-core
    /// slot charge of a *single* instruction at the current kernel.
    /// Loads, stores, and branches always advance by one, so caching
    /// this removes an f64 division from the per-event path; the value
    /// is computed with the exact expression [`CoreModel::advance`]
    /// would evaluate for `n == 1`, so the accumulated slots are
    /// bit-identical.
    cur_core1: f64,
    /// Per-kernel `cur_cost` values, precomputed in [`CoreModel::new`]
    /// with the identical expression so a kernel switch is a table load
    /// instead of a match plus an f64 division.
    cost_table: [f64; Kernel::ALL.len()],
    /// Per-kernel `cur_core1` values (same precomputation contract).
    core1_table: [f64; Kernel::ALL.len()],
    /// Bytes fetched so far per kernel (monotonic; wraps over the kernel's
    /// current hot window to model loop re-execution).
    fetch_bytes: [u64; Kernel::ALL.len()],
    /// `fetch_bytes[kernel.index()]` cached in a scalar so the per-event
    /// fetch walk avoids an indexed read-modify-write; written back to
    /// the table on every kernel switch.
    cur_fetch: u64,
    /// Per-kernel `(code_footprint() / 64).max(1)` — code size in lines.
    fp_lines_table: [u64; Kernel::ALL.len()],
    /// Per-kernel `WINDOW_LINES.min(fp_lines)` — hot-window size in lines.
    win_lines_table: [u64; Kernel::ALL.len()],
    /// Per-kernel `code_base()`.
    code_base_table: [u64; Kernel::ALL.len()],
    cur_fp_lines: u64,
    cur_win_lines: u64,
    cur_code_base: u64,
    /// `cur_fetch / WINDOW_PERIOD_BYTES` at the last window-base refresh.
    cur_period: u64,
    /// `(cur_period * cur_win_lines) % cur_fp_lines` — the hot window's
    /// first line within the kernel's footprint.
    cur_window_base: u64,
    /// `(cur_fetch / 64) % cur_win_lines` — the last fetched line's
    /// offset within the hot window. Crossed lines are consecutive
    /// within a kernel, so this is maintained by increment-and-wrap;
    /// both non-constant divisions the fetch walk used to pay per line
    /// crossing reduce to a compare (the values are identical: the
    /// offset is always in `[0, win_lines)` before the increment, and
    /// `window_base + offset < 2 * fp_lines`, so one conditional
    /// subtract is exactly the modulo).
    cur_line_mod: u64,

    /// Memory-level-parallelism window state.
    last_miss_at: u64,
    cur_mlp: u32,

    /// First-touch page remapping of live probe addresses (see
    /// [`AddressCanonicalizer`]). The stream-replay path bypasses it:
    /// captured streams are canonical already.
    canon: AddressCanonicalizer,

    /// L1D misses attributed to the kernel active at miss time.
    misses_by_kernel: [u64; Kernel::ALL.len()],
}

/// Hot-window geometry of the synthetic fetch stream: kernels execute
/// out of a 3 KiB window of their code region. The window slides to the
/// next 4 KiB after `WINDOW_PERIOD_BYTES` of fetched instruction bytes,
/// modelling the phase behaviour of real encoder code (a mode-decision
/// phase exercises one tool's code paths, then moves on). The period is
/// calibrated to land whole-run L1I MPKI in the low single digits, as
/// measured for SVT-AV1-class encoders.
const WINDOW_LINES: u64 = 48;
/// Fetched bytes per kernel before its hot window advances.
const WINDOW_PERIOD_BYTES: u64 = 256 << 10;

impl CoreModel<Gshare> {
    /// The paper's machine: Broadwell core parameters, full-size Broadwell
    /// cache hierarchy, and a 32 KB gshare standing in for the host branch
    /// unit (calibrated so whole-run miss rates land in the paper's
    /// 2–3.5% band; [`CoreModel::new`] takes any other predictor).
    pub fn broadwell() -> Self {
        Self::new(
            CoreConfig::broadwell(),
            HierarchyConfig::broadwell(),
            Gshare::with_budget_bytes(32 << 10),
        )
    }

    /// Broadwell core with the data caches scaled by `divisor` to match
    /// reduced-fidelity clips (see
    /// [`HierarchyConfig::broadwell_scaled`]).
    pub fn broadwell_scaled(divisor: usize) -> Self {
        Self::new(
            CoreConfig::broadwell(),
            HierarchyConfig::broadwell_scaled(divisor),
            Gshare::with_budget_bytes(32 << 10),
        )
    }
}

impl<B: BranchPredictor> CoreModel<B> {
    /// Builds a model from explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if either configuration is invalid.
    pub fn new(config: CoreConfig, hierarchy: HierarchyConfig, predictor: B) -> Self {
        config.validate();
        hierarchy.validate();
        let kernel = Kernel::FrameSetup;
        let mut cost_table = [0.0f64; Kernel::ALL.len()];
        let mut core1_table = [0.0f64; Kernel::ALL.len()];
        let mut fp_lines_table = [0u64; Kernel::ALL.len()];
        let mut win_lines_table = [0u64; Kernel::ALL.len()];
        let mut code_base_table = [0u64; Kernel::ALL.len()];
        let w = config.width as f64;
        for k in Kernel::ALL {
            let cost = 1.0 / config.kernel_ilp(k).min(w);
            cost_table[k.index()] = cost;
            // advance(1) evaluates (1.0 * cost - 1.0 / w).max(0.0) * w;
            // 1.0 * cost is exactly cost, so this is that expression.
            core1_table[k.index()] = (cost - 1.0 / w).max(0.0) * w;
            let fp = (k.code_footprint() / 64).max(1);
            fp_lines_table[k.index()] = fp;
            win_lines_table[k.index()] = WINDOW_LINES.min(fp);
            code_base_table[k.index()] = k.code_base();
        }
        let cur_cost = cost_table[kernel.index()];
        let cur_core1 = core1_table[kernel.index()];
        let cur_fp_lines = fp_lines_table[kernel.index()];
        let cur_win_lines = win_lines_table[kernel.index()];
        let cur_code_base = code_base_table[kernel.index()];
        CoreModel {
            hierarchy: Hierarchy::new(hierarchy),
            predictor,
            retired: 0,
            cycles: 0.0,
            loads: 0,
            stores: 0,
            branches: 0,
            mispredicts: 0,
            slots_bad_spec: 0.0,
            slots_frontend: 0.0,
            slots_backend_mem: 0.0,
            slots_backend_core: 0.0,
            stalls: ResourceStalls::default(),
            kernel,
            cur_cost,
            cur_core1,
            cost_table,
            core1_table,
            fetch_bytes: [0; Kernel::ALL.len()],
            cur_fetch: 0,
            fp_lines_table,
            win_lines_table,
            code_base_table,
            cur_fp_lines,
            cur_win_lines,
            cur_code_base,
            // cur_fetch = 0: period 0, window base (0 * wl) % fp = 0,
            // line offset (0 / 64) % wl = 0.
            cur_period: 0,
            cur_window_base: 0,
            cur_line_mod: 0,
            last_miss_at: 0,
            cur_mlp: 1,
            canon: AddressCanonicalizer::new(),
            misses_by_kernel: [0; Kernel::ALL.len()],
            config,
        }
    }

    /// Finishes the run and produces the report.
    pub fn into_report(self) -> CoreReport {
        CoreReport {
            instructions: self.retired,
            cycles: self.cycles,
            width: self.config.width,
            branches: self.branches,
            branch_mispredicts: self.mispredicts,
            // Retiring slots accumulate exactly `n as f64` per advance:
            // every partial sum is an integer, integer-valued f64
            // addition is exact below 2^53, so the accumulator always
            // equals `retired` — report the counter instead of paying an
            // f64 add per event. (An encode retiring 2^53 instructions
            // is ~10^7 CPU-years; the conversion here is exact.)
            slots_retiring: self.retired as f64,
            slots_bad_spec: self.slots_bad_spec,
            slots_frontend: self.slots_frontend,
            slots_backend_mem: self.slots_backend_mem,
            slots_backend_core: self.slots_backend_core,
            resource_stalls: self.stalls,
            cache: self.hierarchy.stats(),
            misses_by_kernel: self.misses_by_kernel,
        }
    }

    /// Instructions retired so far (also available through
    /// [`Probe::retired`]).
    pub fn instructions(&self) -> u64 {
        self.retired
    }

    /// Switches the active kernel, refreshing the cached per-kernel
    /// scalars. All three dispatch surfaces (live probe, stream sink,
    /// batched drain) funnel through here so the `cur_*` caches stay
    /// coherent with `kernel`.
    #[inline]
    fn switch_kernel(&mut self, k: Kernel) {
        self.fetch_bytes[self.kernel.index()] = self.cur_fetch;
        self.kernel = k;
        let idx = k.index();
        self.cur_cost = self.cost_table[idx];
        self.cur_core1 = self.core1_table[idx];
        self.cur_fetch = self.fetch_bytes[idx];
        self.cur_fp_lines = self.fp_lines_table[idx];
        self.cur_win_lines = self.win_lines_table[idx];
        self.cur_code_base = self.code_base_table[idx];
        self.cur_period = self.cur_fetch / WINDOW_PERIOD_BYTES;
        self.cur_window_base = (self.cur_period * self.cur_win_lines) % self.cur_fp_lines;
        self.cur_line_mod = (self.cur_fetch / 64) % self.cur_win_lines;
    }

    /// Retires `n` instructions at the current kernel's ILP rate and
    /// attributes base slots.
    #[inline]
    fn advance(&mut self, n: u64) {
        if n == 1 {
            // The dominant case (every load, store, and branch): the
            // n == 1 arithmetic reduces to the precomputed per-kernel
            // scalars — `1.0 * cur_cost` is exactly `cur_cost` and
            // `cur_core1` caches `(cur_cost - 1.0 / w).max(0.0) * w` —
            // so this path skips the f64 division bit-exactly.
            self.retired += 1;
            self.cycles += self.cur_cost;
            // Adding an exact +0.0 to the non-negative accumulator is the
            // identity, so width-limited kernels (cur_core1 == 0.0) skip
            // the add bit-exactly.
            if self.cur_core1 != 0.0 {
                self.slots_backend_core += self.cur_core1;
            }
            self.fetch(1);
            return;
        }
        let w = self.config.width as f64;
        self.retired += n;
        let base = n as f64 * self.cur_cost;
        self.cycles += base;
        // Slots above the ideal width-limited schedule that the ILP limit
        // wastes are core-bound backend stalls (execution resources /
        // dependency chains).
        self.slots_backend_core += (base - n as f64 / w).max(0.0) * w;
        self.fetch(n);
    }

    /// Walks the synthetic fetch stream `n` instructions forward within
    /// the current kernel's hot window.
    #[inline]
    fn fetch(&mut self, n: u64) {
        let before = self.cur_fetch;
        let after = before + n * self.config.inst_bytes;
        self.cur_fetch = after;
        if before / 64 == after / 64 {
            return;
        }
        self.fetch_lines(before / 64, after / 64, after);
    }

    /// The line-crossing tail of [`CoreModel::fetch`] (an
    /// `inst_bytes = 4` stream crosses a line once per 16 instructions).
    ///
    /// The fetched address is
    /// `base + ((window_base + line % win_lines) % fp_lines) * 64` with
    /// `window_base = (after / WINDOW_PERIOD_BYTES * win_lines) % fp_lines`.
    /// Both modulos are by per-kernel, non-constant divisors; rather than
    /// dividing per crossed line, the state is carried incrementally:
    /// crossed lines are consecutive within a kernel, so
    /// `line % win_lines` is the previous offset plus one with a wrap at
    /// `win_lines`, and `window_base` only changes when `after` crosses a
    /// `WINDOW_PERIOD_BYTES` boundary (or on a kernel switch, which
    /// recomputes all of it from `cur_fetch`). The addresses produced are
    /// identical to the direct-modulo form — this is integer arithmetic,
    /// not a float approximation.
    #[inline]
    fn fetch_lines(&mut self, first_line: u64, last_line: u64, after: u64) {
        let period = after / WINDOW_PERIOD_BYTES;
        if period != self.cur_period {
            self.cur_period = period;
            self.cur_window_base = (period * self.cur_win_lines) % self.cur_fp_lines;
        }
        let w = self.config.width as f64;
        for _ in first_line..last_line {
            self.cur_line_mod += 1;
            if self.cur_line_mod == self.cur_win_lines {
                self.cur_line_mod = 0;
            }
            let mut slot = self.cur_window_base + self.cur_line_mod;
            if slot >= self.cur_fp_lines {
                slot -= self.cur_fp_lines;
            }
            let addr = self.cur_code_base + slot * 64;
            let level = self.hierarchy.fetch(addr);
            if level > ServiceLevel::L1 {
                let raw = (self.hierarchy.latency(level) - self.hierarchy.latency(ServiceLevel::L1))
                    as f64;
                let exposed = raw * self.config.exposure_icache;
                self.cycles += exposed;
                self.slots_frontend += exposed * w;
            }
        }
    }

    /// Drains a captured event stream into the model.
    ///
    /// The stream must come from a
    /// [`StreamRecorder`](vstress_trace::StreamRecorder) capture: its
    /// data addresses are already canonical, so this path skips the
    /// live-probe canonicalization while performing the identical model
    /// arithmetic — the resulting [`CoreReport`] is bit-identical to
    /// driving the model live with the raw event sequence (pinned by
    /// `stream_replay_is_bit_identical_to_live_dispatch` below and the
    /// full-encode oracle in `tests/stream_equivalence.rs`).
    pub fn consume_stream(&mut self, stream: &EventStream) {
        for chunk in stream.chunks() {
            self.consume_chunk(chunk);
        }
    }

    /// Drains one packed chunk of a captured stream (see
    /// [`CoreModel::consume_stream`]). Chunks must be fed in stream
    /// order; this is the consumer half of the capture/simulate
    /// pipeline, draining a [`vstress_trace::ChunkRx`] while the encode
    /// is still producing.
    pub fn consume_chunk(&mut self, chunk: &[u8]) {
        decode_chunk(chunk, &mut CanonicalSink(self));
    }

    /// Charges a data-side miss stall and the associated resource pressure.
    #[inline]
    fn memory_stall(&mut self, level: ServiceLevel, is_store: bool) {
        if level <= ServiceLevel::L1 {
            return;
        }
        self.memory_stall_miss(level, is_store);
    }

    /// The miss half of [`CoreModel::memory_stall`], outlined so the
    /// ubiquitous L1-hit check above stays inline at every call site.
    fn memory_stall_miss(&mut self, level: ServiceLevel, is_store: bool) {
        // Overlapping misses share latency (memory-level parallelism).
        if self.retired - self.last_miss_at <= self.config.mlp_window {
            self.cur_mlp = (self.cur_mlp + 1).min(self.config.max_mlp);
        } else {
            self.cur_mlp = 1;
        }
        self.last_miss_at = self.retired;

        self.misses_by_kernel[self.kernel.index()] += 1;
        let raw = (self.hierarchy.latency(level) - self.hierarchy.latency(ServiceLevel::L1)) as f64;
        let exposure = match level {
            ServiceLevel::L2 => self.config.exposure_l2,
            ServiceLevel::Llc => self.config.exposure_llc,
            _ => self.config.exposure_mem,
        };
        let mut exposed = raw * exposure / self.cur_mlp as f64;
        if is_store {
            exposed *= self.config.store_exposure_scale;
        }
        let w = self.config.width as f64;
        self.cycles += exposed;
        self.slots_backend_mem += exposed * w;

        // Structure pressure during the stall: the frontend keeps
        // dispatching until a queue fills. Clamp each structure's share.
        let inflight = exposed * w;
        let clamp = |x: f64| x.clamp(0.0, 1.0);
        let (load_frac, store_frac) = if self.retired > 1000 {
            (self.loads as f64 / self.retired as f64, self.stores as f64 / self.retired as f64)
        } else {
            (0.26, 0.13)
        };
        self.stalls.rs +=
            exposed * clamp(inflight * self.config.dependent_fraction / self.config.rs as f64);
        self.stalls.lq += exposed * clamp(inflight * load_frac / self.config.lq as f64);
        self.stalls.sq += exposed * clamp(inflight * store_frac / self.config.sq as f64);
        self.stalls.rob += exposed * clamp(inflight / self.config.rob as f64) * 0.5;
    }
}

/// The stream-replay adaptor: identical event handling to the live
/// [`Probe`] impl on [`CoreModel`], minus address canonicalization
/// (replayed addresses are canonical by construction, and
/// canonicalization is idempotent, so the hierarchy sees the same
/// addresses either way).
struct CanonicalSink<'a, B: BranchPredictor>(&'a mut CoreModel<B>);

impl<B: BranchPredictor> Probe for CanonicalSink<'_, B> {
    #[inline]
    fn set_kernel(&mut self, k: Kernel) {
        // Capture drops redundant redeclarations, so every arriving
        // switch is (or is indistinguishable from) a real one.
        self.0.switch_kernel(k);
    }

    #[inline]
    fn alu(&mut self, n: u64) {
        self.0.advance(n);
    }

    #[inline]
    fn avx(&mut self, n: u64) {
        self.0.advance(n);
    }

    #[inline]
    fn sse(&mut self, n: u64) {
        self.0.advance(n);
    }

    #[inline]
    fn load(&mut self, addr: u64, bytes: u32) {
        let m = &mut *self.0;
        m.advance(1);
        m.loads += 1;
        let level = m.hierarchy.load(addr, bytes);
        m.memory_stall(level, false);
    }

    #[inline]
    fn store(&mut self, addr: u64, bytes: u32) {
        let m = &mut *self.0;
        m.advance(1);
        m.stores += 1;
        let level = m.hierarchy.store(addr, bytes);
        m.memory_stall(level, true);
    }

    #[inline]
    fn branch(&mut self, pc: u64, taken: bool) {
        self.0.branch(pc, taken);
    }

    #[inline]
    fn retired(&self) -> u64 {
        self.0.retired
    }
}

impl<B: BranchPredictor> std::fmt::Debug for CanonicalSink<'_, B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("CanonicalSink")
    }
}

impl<B: BranchPredictor> Probe for CoreModel<B> {
    #[inline]
    fn set_kernel(&mut self, k: Kernel) {
        self.switch_kernel(k);
    }

    #[inline]
    fn alu(&mut self, n: u64) {
        self.advance(n);
    }

    #[inline]
    fn avx(&mut self, n: u64) {
        self.advance(n);
    }

    #[inline]
    fn sse(&mut self, n: u64) {
        self.advance(n);
    }

    #[inline]
    fn load(&mut self, addr: u64, bytes: u32) {
        self.advance(1);
        self.loads += 1;
        let addr = self.canon.canon(addr);
        let level = self.hierarchy.load(addr, bytes);
        self.memory_stall(level, false);
    }

    #[inline]
    fn store(&mut self, addr: u64, bytes: u32) {
        self.advance(1);
        self.stores += 1;
        let addr = self.canon.canon(addr);
        let level = self.hierarchy.store(addr, bytes);
        self.memory_stall(level, true);
    }

    #[inline]
    fn branch(&mut self, pc: u64, taken: bool) {
        self.advance(1);
        self.branches += 1;
        let guess = self.predictor.predict(pc);
        self.predictor.update(pc, taken, guess);
        if guess != taken {
            self.mispredicts += 1;
            let w = self.config.width as f64;
            let penalty = self.config.mispredict_penalty as f64;
            let bad = penalty * self.config.mispredict_bad_spec_fraction;
            let fe = penalty - bad;
            self.cycles += penalty;
            self.slots_bad_spec += bad * w;
            self.slots_frontend += fe * w;
        }
    }

    #[inline]
    fn retired(&self) -> u64 {
        self.retired
    }

    /// Batched event drain for memo replay and recorded traces.
    ///
    /// Observably identical to per-event dispatch — `alu`/`avx`/`sse` all
    /// reduce to `advance(n)` (the batch is *not* coalesced: f64 addition
    /// is non-associative, so each event performs its own `advance`
    /// arithmetic), and a `SetKernel` repeating the current kernel is
    /// skipped because `switch_kernel` only installs values that are
    /// pure functions of `k` (plus a write-back/reload of the fetch
    /// scalar that is the identity when `k` is unchanged). What the
    /// loop saves is the per-event
    /// call overhead and redundant kernel-cost updates, which dominate
    /// replayed streams (recorded batches re-declare their kernel far
    /// more often than they switch it).
    fn drain_batch(&mut self, events: &[ProbeEvent]) {
        for &e in events {
            match e {
                ProbeEvent::SetKernel(k) => {
                    if k != self.kernel {
                        self.switch_kernel(k);
                    }
                }
                ProbeEvent::Alu(n) | ProbeEvent::Avx(n) | ProbeEvent::Sse(n) => self.advance(n),
                ProbeEvent::Load { addr, bytes } => self.load(addr, bytes),
                ProbeEvent::Store { addr, bytes } => self.store(addr, bytes),
                ProbeEvent::Branch { pc, taken } => self.branch(pc, taken),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scaled() -> CoreModel {
        CoreModel::broadwell_scaled(16)
    }

    #[test]
    fn pure_simd_loop_reaches_high_ipc() {
        let mut m = scaled();
        m.set_kernel(Kernel::Sad);
        // Tight loop over one cache-resident buffer with predictable branch.
        for i in 0..20_000u64 {
            m.avx(3);
            m.load(0x100_000 + (i % 32) * 64, 32);
            m.branch(0x5000_0000_0010, i % 64 != 63);
        }
        let r = m.into_report();
        assert!(r.ipc() > 2.2, "cache-resident SIMD should run fast, got {}", r.ipc());
        assert!(r.topdown().retiring > 0.55);
    }

    #[test]
    fn memory_streaming_is_backend_bound() {
        let mut m = scaled();
        m.set_kernel(Kernel::FrameSetup);
        // Stream a working set far larger than the scaled LLC.
        for i in 0..400_000u64 {
            m.load(0x1000_0000 + i * 64, 32);
            m.alu(1);
        }
        let r = m.into_report();
        let td = r.topdown();
        assert!(
            td.backend_memory > td.frontend && td.backend_memory > td.bad_speculation,
            "streaming must be memory bound: {td:?}"
        );
        assert!(r.ipc() < 2.0, "streaming IPC must sink, got {}", r.ipc());
    }

    #[test]
    fn random_branches_cause_bad_speculation() {
        let mut m = scaled();
        m.set_kernel(Kernel::ModeDecision);
        let mut x = 1u64;
        for _ in 0..50_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            m.alu(4);
            m.branch(0x5000_0000_0100, (x >> 62) & 1 == 1);
        }
        let r = m.into_report();
        assert!(r.branch_miss_rate() > 0.3, "unpredictable branch: {}", r.branch_miss_rate());
        let td = r.topdown();
        assert!(td.bad_speculation > 0.1, "bad spec must show: {td:?}");
    }

    #[test]
    fn entropy_kernel_is_core_bound() {
        let mut m = scaled();
        m.set_kernel(Kernel::EntropyCoder);
        for i in 0..20_000u64 {
            m.alu(4);
            m.branch(0x5000_0000_0200, i % 2 == 0);
        }
        let r = m.into_report();
        let td = r.topdown();
        assert!(td.backend_core > 0.2, "serial kernel must be core bound: {td:?}");
    }

    #[test]
    fn big_code_footprint_stresses_the_frontend() {
        // ModeDecision's 48KB footprint exceeds the scaled L1I.
        let run = |kernel: Kernel| {
            let mut m = scaled();
            m.set_kernel(kernel);
            for i in 0..200_000u64 {
                m.alu(2);
                m.branch(0x5000_0000_0300, i % 8 != 0);
            }
            m.into_report().topdown().frontend
        };
        let big = run(Kernel::ModeDecision);
        let small = run(Kernel::Sad);
        assert!(big > small, "large code must be more frontend bound: {big} vs {small}");
    }

    #[test]
    fn mlp_reduces_per_miss_cost() {
        // Two equal-miss-count runs: one with misses bunched (overlapping),
        // one with misses separated by long compute (serialized).
        let mut bunched = scaled();
        bunched.set_kernel(Kernel::FrameSetup);
        for i in 0..4000u64 {
            bunched.load(0x2000_0000 + i * 64, 32);
        }
        for _ in 0..4000u64 {
            bunched.alu(200);
        }
        let mut spread = scaled();
        spread.set_kernel(Kernel::FrameSetup);
        for i in 0..4000u64 {
            spread.load(0x2000_0000 + i * 64, 32);
            spread.alu(200);
        }
        let b = bunched.into_report();
        let s = spread.into_report();
        assert_eq!(b.instructions, s.instructions);
        assert!(
            b.cycles < s.cycles,
            "overlapped misses must cost less: {} vs {}",
            b.cycles,
            s.cycles
        );
    }

    #[test]
    fn resource_stalls_follow_memory_pressure() {
        let mut m = scaled();
        m.set_kernel(Kernel::FrameSetup);
        for i in 0..100_000u64 {
            m.load(0x3000_0000 + i * 64, 32);
            m.alu(1);
        }
        let r = m.into_report();
        assert!(r.resource_stalls.rs > 0.0);
        assert!(
            r.resource_stalls.rob < r.resource_stalls.rs,
            "ROB (192) must stall less than RS (60): {:?}",
            r.resource_stalls
        );
    }

    /// The batched drain must be invisible: a pseudo-random event stream
    /// (kernel switches, repeated same-kernel declarations, loads/stores
    /// with page locality, biased branches) driven per event and via one
    /// `drain_batch` call must produce bit-identical reports — every f64
    /// accumulator included, which is why the drain must not coalesce
    /// compute events (f64 addition is non-associative).
    #[test]
    fn drain_batch_is_bit_identical_to_per_event_dispatch() {
        let mut x = 0x1234_5678_9abc_def0u64;
        let mut step = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut events = Vec::new();
        for _ in 0..120_000 {
            match step() % 12 {
                0 => events
                    .push(ProbeEvent::SetKernel(Kernel::ALL[step() as usize % Kernel::ALL.len()])),
                1 => {
                    // Re-declaring the current kernel is the common case in
                    // recorded batches; the drain's skip path must be
                    // equivalent to the full set_kernel.
                    let k = Kernel::ALL[step() as usize % Kernel::ALL.len()];
                    events.push(ProbeEvent::SetKernel(k));
                    events.push(ProbeEvent::SetKernel(k));
                }
                2..=4 => events.push(ProbeEvent::Alu(1 + step() % 8)),
                5 => events.push(ProbeEvent::Avx(1 + step() % 4)),
                6 => events.push(ProbeEvent::Sse(1 + step() % 4)),
                7 | 8 => events.push(ProbeEvent::Load {
                    addr: 0x10_0000 + step() % (1 << 20),
                    bytes: 1 + (step() % 64) as u32,
                }),
                9 => events.push(ProbeEvent::Store {
                    addr: 0x30_0000 + step() % (1 << 18),
                    bytes: 1 + (step() % 64) as u32,
                }),
                _ => events.push(ProbeEvent::Branch {
                    pc: 0x5000_0000_0000 + (step() % 64) * 16,
                    taken: step() % 3 == 0,
                }),
            }
        }

        let mut per_event = scaled();
        for &e in &events {
            match e {
                ProbeEvent::SetKernel(k) => per_event.set_kernel(k),
                ProbeEvent::Alu(n) => per_event.alu(n),
                ProbeEvent::Avx(n) => per_event.avx(n),
                ProbeEvent::Sse(n) => per_event.sse(n),
                ProbeEvent::Load { addr, bytes } => per_event.load(addr, bytes),
                ProbeEvent::Store { addr, bytes } => per_event.store(addr, bytes),
                ProbeEvent::Branch { pc, taken } => per_event.branch(pc, taken),
            }
        }
        let mut batched = scaled();
        batched.drain_batch(&events);
        assert_eq!(per_event.into_report(), batched.into_report());
    }

    /// The capture/replay round trip must be invisible: recording a raw
    /// event stream through a `StreamRecorder` (which canonicalizes
    /// addresses and drops redundant kernel redeclarations) and draining
    /// it via `consume_stream` must produce a report bit-identical to
    /// driving the model live with the raw events (whose own
    /// canonicalizer assigns the same pages in the same first-touch
    /// order).
    #[test]
    fn stream_replay_is_bit_identical_to_live_dispatch() {
        use vstress_trace::StreamRecorder;
        let mut x = 0x0fed_cba9_8765_4321u64;
        let mut step = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut live = scaled();
        let mut rec = StreamRecorder::new().with_chunk_target(16 << 10);
        for _ in 0..150_000 {
            match step() % 12 {
                0 | 1 => {
                    let k = Kernel::ALL[step() as usize % Kernel::ALL.len()];
                    live.set_kernel(k);
                    rec.set_kernel(k);
                }
                2..=4 => {
                    let n = 1 + step() % 40;
                    live.alu(n);
                    rec.alu(n);
                }
                5 => {
                    let n = 1 + step() % 6;
                    live.avx(n);
                    rec.avx(n);
                }
                6 => {
                    let n = 1 + step() % 4;
                    live.sse(n);
                    rec.sse(n);
                }
                7 | 8 => {
                    let (a, b) = (0x7f12_0000_0000 + step() % (1 << 22), 1 << (step() % 7));
                    live.load(a, b);
                    rec.load(a, b);
                }
                9 => {
                    let (a, b) = (0x7f34_0000_0000 + step() % (1 << 20), 13);
                    live.store(a, b);
                    rec.store(a, b);
                }
                _ => {
                    let (pc, t) = (0x5000_0000_0000 + (step() % 64) * 16, step() % 3 == 0);
                    live.branch(pc, t);
                    rec.branch(pc, t);
                }
            }
        }
        let (stream, _) = rec.finish();
        let mut replayed = scaled();
        stream.replay(&mut CanonicalSink(&mut replayed));
        let mut chunked = scaled();
        chunked.consume_stream(&stream);
        let live = live.into_report();
        assert_eq!(live, replayed.into_report());
        assert_eq!(live, chunked.into_report());
    }

    #[test]
    fn report_slot_identity() {
        let mut m = scaled();
        m.set_kernel(Kernel::Quant);
        for i in 0..10_000u64 {
            m.avx(2);
            m.load(0x100_000 + (i % 1024) * 64, 32);
            m.store(0x200_000 + (i % 1024) * 64, 32);
            m.branch(0x5000_0000_0400, i % 4 != 0);
        }
        let r = m.into_report();
        assert_eq!(r.instructions, 10_000 * 5);
        let td = r.topdown();
        let sum = td.retiring + td.bad_speculation + td.frontend + td.backend;
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(r.ipc() <= r.width as f64 + 1e-9);
    }
}
