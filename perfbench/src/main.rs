//! Measures one workload of the benchmark in this process and prints the
//! result as one JSON line on stdout (the last line).
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --mode <timed|traced|reference>
//!           [--trace-out <file.jsonl>]
//! ```
//!
//! * `timed` — tracing off. Runs whole episodes (build, warm-up window,
//!   steady window) while the next one still fits in `--seconds` (at least
//!   one), then builds and warms up fresh simulations until
//!   [`WARMUP_SAMPLES`] set-up and warm-up times exist.
//!   Prints the end-to-end figures plus each episode's validation metrics
//!   and end-state digest.
//! * `traced` — the same episodes, each keeping one record per iteration in
//!   memory (op time and counter deltas read through the public API around
//!   each `step`), written to `--trace-out` at the end. After the episodes
//!   it times kernel calls into the layers on the last episode's end state.
//! * `reference` — one untimed episode on 1 thread and 1 NUMA domain, the
//!   correctness reference of the same seed.
//!
//! The engine is only driven through its public API; nothing here changes
//! how it runs.

use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::time::Instant;

use bdm_checkpoint::{CheckpointRing, Registry, RingPolicy};
use bdm_core::{builtin, HealthPolicy, OptLevel, Param, Simulation};
use bdm_env::{EnvironmentKind, NeighborQueryScratch, SliceCloud};
use bdm_models::{model_by_name, BenchmarkModel};

/// Initial agents of every workload.
const AGENTS: usize = 100_000;
/// Iterations of the warm-up window (timed as `warmup_s`, excluded from the
/// steady samples). It holds the first-iteration sort and lazy allocation.
const WARMUP_ITERS: usize = 10;
/// Iterations of the steady window (the `iter_*` samples): 10 lie beyond the
/// nearest-rank p90.
const STEADY_ITERS: usize = 100;
/// Set-up and warm-up samples per timed run; `setup_s` and `warmup_s` are
/// their medians.
const WARMUP_SAMPLES: usize = 3;
/// Repetitions of each kernel call; each kernel reports its median.
const KERNEL_REPS: usize = 5;
const MIB: f64 = 1024.0 * 1024.0;

/// One benchmark workload: a model with an engine configuration.
struct Workload {
    name: &'static str,
    model: &'static str,
    /// `SortExtraMemory` ladder with Morton sorting every 5 iterations, a
    /// health sentinel and a checkpoint ring.
    supervised: bool,
}

const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "clustering-100k",
        model: "cell_clustering",
        supervised: false,
    },
    Workload {
        name: "oncology-supervised-100k",
        model: "oncology",
        supervised: true,
    },
];

const SORT_PERIOD: usize = 5;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Timed,
    Traced,
    Reference,
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    mode: Mode,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 4357;
    let mut seconds = 10.0;
    let mut mode = Mode::Timed;
    let mut trace_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--mode" => {
                mode = match value.as_str() {
                    "timed" => Mode::Timed,
                    "traced" => Mode::Traced,
                    "reference" => Mode::Reference,
                    _ => return Err(format!("bad mode {value}")),
                }
            }
            "--trace-out" => trace_out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        mode,
        trace_out,
    })
}

fn param_for(w: &Workload, seed: u64, threads: usize) -> Param {
    let mut param = Param {
        seed,
        threads: Some(threads),
        numa_domains: Some(threads),
        ..Param::default()
    };
    if w.supervised {
        param = param.apply_opt_level(OptLevel::SortExtraMemory);
        param.agent_sort_frequency = Some(SORT_PERIOD);
        param.health = Some(HealthPolicy::default());
    }
    param
}

/// Per-op time and run-count totals, in a fixed op order.
const OPS: [&str; 7] = [
    builtin::SNAPSHOT,
    builtin::ENVIRONMENT,
    builtin::AGENT_OPS,
    builtin::DIFFUSION,
    builtin::TEARDOWN,
    builtin::AGENT_SORTING,
    builtin::HEALTH_CHECK,
];

fn op_totals(sim: &Simulation) -> [(f64, u64); OPS.len()] {
    let mut out = [(0.0, 0); OPS.len()];
    for info in sim.scheduler().ops() {
        if let Some(i) = OPS.iter().position(|&n| n == info.name) {
            out[i] = (info.total.as_secs_f64(), info.runs);
        }
    }
    out
}

/// Counters read around one traced iteration.
#[derive(Clone, Copy, Default)]
struct Counters {
    added: u64,
    removed: u64,
    force: u64,
    batched: u64,
    violations: u64,
    pool_allocs: u64,
    sys_allocs: u64,
}

impl Counters {
    fn since(&self, before: &Counters) -> Counters {
        Counters {
            added: self.added - before.added,
            removed: self.removed - before.removed,
            force: self.force - before.force,
            batched: self.batched - before.batched,
            violations: self.violations - before.violations,
            pool_allocs: self.pool_allocs - before.pool_allocs,
            sys_allocs: self.sys_allocs - before.sys_allocs,
        }
    }
}

fn counters(sim: &Simulation) -> Counters {
    let s = sim.stats();
    let m = sim.memory_stats();
    Counters {
        added: s.agents_added,
        removed: s.agents_removed,
        force: s.force_calculations,
        batched: s.batched_force_queries,
        violations: s.violations_detected,
        pool_allocs: m.pool_allocations,
        sys_allocs: m.system_allocations,
    }
}

/// The traced record of one iteration.
struct IterRecord {
    iteration: u64,
    steady: bool,
    live: usize,
    step_s: f64,
    capture_s: Option<f64>,
    ops: [(f64, u64); OPS.len()],
    delta: Counters,
    local_steals: u64,
    remote_steals: u64,
    owned_blocks: u64,
    pool_reserved: u64,
    env_bytes: usize,
    ring_bytes: usize,
}

/// The measurements of one episode.
struct Episode {
    setup_s: f64,
    warmup_s: f64,
    /// Steady iteration times, `step` plus the ring capture when due.
    samples: Vec<f64>,
    /// Σ live agents over the steady iterations.
    live_sum: f64,
    attempted: u64,
    failed: u64,
    /// A step panicked; the end state is unusable.
    panicked: bool,
    records: Vec<IterRecord>,
}

/// A simulation with its checkpoint ring, if the workload has one.
type State = (Simulation, Option<CheckpointRing>);

/// Builds the workload's simulation (and ring, with its initial capture);
/// returns it with the set-up time.
fn build(w: &Workload, model: &dyn BenchmarkModel, param: Param) -> (State, f64) {
    let t = Instant::now();
    let sim = model.build(param);
    let ring = w.supervised.then(|| {
        let mut ring = CheckpointRing::new(RingPolicy::default());
        ring.capture(&sim).expect("initial checkpoint capture");
        ring
    });
    ((sim, ring), t.elapsed().as_secs_f64())
}

/// Builds the workload and runs `total` iterations: the warm-up window, then
/// steady iterations. Returns the measurements and the end state.
fn run_episode(
    w: &Workload,
    model: &dyn BenchmarkModel,
    param: Param,
    traced: bool,
    total: usize,
) -> (Episode, State) {
    let ((mut sim, mut ring), setup_s) = build(w, model, param);
    let mut ep = Episode {
        setup_s,
        warmup_s: 0.0,
        samples: Vec::with_capacity(total),
        live_sum: 0.0,
        attempted: total as u64,
        failed: 0,
        panicked: false,
        records: Vec::with_capacity(if traced { total } else { 0 }),
    };
    if traced {
        sim.take_steal_stats();
    }
    let mut violations = sim.stats().violations_detected;
    for i in 0..total {
        let live = sim.num_agents();
        let (ops_before, c_before) = if traced {
            (op_totals(&sim), counters(&sim))
        } else {
            Default::default()
        };
        let t = Instant::now();
        let stepped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.step()));
        let step_s = t.elapsed().as_secs_f64();
        if stepped.is_err() {
            // The state is unusable after a panic: this and every remaining
            // iteration of the episode fail.
            ep.failed += (total - i) as u64;
            ep.panicked = true;
            break;
        }
        let mut capture_s = None;
        let mut capture_failed = false;
        if let Some(ring) = ring.as_mut().filter(|r| r.is_due(sim.iteration())) {
            let t = Instant::now();
            capture_failed = ring.capture(&sim).is_err();
            capture_s = Some(t.elapsed().as_secs_f64());
        }
        let iter_s = step_s + capture_s.unwrap_or(0.0);
        let now_violations = sim.stats().violations_detected;
        if capture_failed || now_violations > violations {
            ep.failed += 1;
        }
        violations = now_violations;
        let steady = i >= WARMUP_ITERS;
        if steady {
            ep.samples.push(iter_s);
            ep.live_sum += live as f64;
        } else {
            ep.warmup_s += iter_s;
        }
        if traced {
            let ops_after = op_totals(&sim);
            let c = counters(&sim).since(&c_before);
            let steal = sim.take_steal_stats();
            let mut ops = [(0.0, 0); OPS.len()];
            for (k, op) in ops.iter_mut().enumerate() {
                *op = (
                    ops_after[k].0 - ops_before[k].0,
                    ops_after[k].1 - ops_before[k].1,
                );
            }
            ep.records.push(IterRecord {
                iteration: sim.iteration(),
                steady,
                live,
                step_s,
                capture_s,
                ops,
                delta: c,
                local_steals: steal.local_steals,
                remote_steals: steal.remote_steals,
                owned_blocks: steal.owned_blocks,
                pool_reserved: sim.memory_stats().reserved_bytes,
                env_bytes: sim.environment_memory_bytes(),
                ring_bytes: ring.as_ref().map_or(0, CheckpointRing::resident_bytes),
            });
        }
    }
    (ep, (sim, ring))
}

/// The episode's `validate()` metrics and end-state digest; none after a
/// panic, which the correctness check then rejects.
fn outcome(
    model: &dyn BenchmarkModel,
    ep: &Episode,
    sim: &Simulation,
) -> (Vec<(String, f64)>, String) {
    if ep.panicked {
        (Vec::new(), "panicked".to_string())
    } else {
        (model.validate(sim), digest(sim))
    }
}

/// A 64-bit hash of the step-relevant end state
/// (`bdm_core::testing::fingerprint`: agents by uid, diffusion grids).
fn digest(sim: &Simulation) -> String {
    let fp = bdm_core::testing::fingerprint(sim);
    // SipHash with fixed zero keys: the same state hashes the same in every
    // process.
    #[allow(deprecated)]
    let mut h = std::hash::SipHasher::new();
    fp.iteration.hash(&mut h);
    fp.uid_counter.hash(&mut h);
    for (uid, a) in &fp.agents {
        uid.hash(&mut h);
        a.position.hash(&mut h);
        a.diameter.hash(&mut h);
        a.payload.hash(&mut h);
        a.tag.hash(&mut h);
        a.body.hash(&mut h);
        a.behaviors.hash(&mut h);
        a.is_static.hash(&mut h);
        a.created_iter.hash(&mut h);
        a.violation.hash(&mut h);
    }
    for g in &fp.grids {
        g.name.hash(&mut h);
        g.concentrations.hash(&mut h);
    }
    format!("{:016x}", h.finish())
}

/// Nearest-rank quantile of unsorted samples (0 when empty).
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// `(steal, total)` jiffies of the aggregate `cpu` line of `/proc/stat`.
fn host_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user/nice.
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

/// JSON object writer for flat `name -> number | string` maps.
#[derive(Default)]
struct Json(String);

impl Json {
    fn num(&mut self, key: &str, v: f64) -> &mut Self {
        let v = if v.is_finite() { v } else { 0.0 };
        self.sep();
        let _ = write!(self.0, "\"{key}\":{v}");
        self
    }
    fn raw(&mut self, key: &str, raw: &str) -> &mut Self {
        self.sep();
        let _ = write!(self.0, "\"{key}\":{raw}");
        self
    }
    fn str(&mut self, key: &str, v: &str) -> &mut Self {
        self.sep();
        let _ = write!(self.0, "\"{key}\":\"{v}\"");
        self
    }
    fn sep(&mut self) {
        if !self.0.is_empty() {
            self.0.push(',');
        }
    }
    fn finish(&self) -> String {
        format!("{{{}}}", self.0)
    }
}

fn validate_json(v: &[(String, f64)]) -> String {
    let mut j = Json::default();
    for (k, x) in v {
        j.num(k, *x);
    }
    j.finish()
}

fn list_json(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(","))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let model = model_by_name(w.model, AGENTS).expect("workload model exists");
    let model = model.as_ref();

    let episode_len = WARMUP_ITERS + STEADY_ITERS;
    if args.mode == Mode::Reference {
        let (ep, (sim, _)) = run_episode(w, model, param_for(w, args.seed, 1), false, episode_len);
        let (validate, digest) = outcome(model, &ep, &sim);
        let mut j = Json::default();
        j.num("attempted", ep.attempted as f64)
            .num("failed", ep.failed as f64)
            .raw("validate", &validate_json(&validate))
            .str("digest", &digest);
        println!("{}", j.finish());
        return;
    }

    let traced = args.mode == Mode::Traced;
    let (steal0, ticks0) = host_ticks();
    let started = Instant::now();
    let mut episodes: Vec<Episode> = Vec::new();
    let mut validates = Vec::new();
    let mut digests = Vec::new();
    let mut end_state: Option<State> = None;
    // Episodes run while the next one still fits in `--seconds`; at least
    // one. Every episode builds a fresh simulation, the first one in a fresh
    // process, as a user's run would.
    loop {
        // Free the previous episode's state before building the next one.
        drop(end_state.take());
        let t = Instant::now();
        let (ep, state) = run_episode(w, model, param_for(w, args.seed, 2), traced, episode_len);
        let episode_s = t.elapsed().as_secs_f64();
        eprintln!(
            "{} episode {}: setup {:.4} s, warm-up {:.3} s, p50 {:.4} s, p90 {:.4} s",
            w.name,
            episodes.len(),
            ep.setup_s,
            ep.warmup_s,
            quantile(&ep.samples, 0.5),
            quantile(&ep.samples, 0.9)
        );
        let (validate, digest) = outcome(model, &ep, &state.0);
        validates.push(validate);
        digests.push(digest);
        end_state = (!ep.panicked).then_some(state);
        episodes.push(ep);
        if started.elapsed().as_secs_f64() + episode_s > args.seconds {
            break;
        }
    }
    // Only the traced run keeps the end state, for the kernel calls. The
    // timed run frees it, then adds set-up and warm-up samples from fresh
    // builds run through their warm-up window only.
    let end_state = end_state.filter(|_| traced);
    let mut extra: Vec<Episode> = Vec::new();
    while !traced && episodes.len() + extra.len() < WARMUP_SAMPLES {
        let (ep, _) = run_episode(w, model, param_for(w, args.seed, 2), false, WARMUP_ITERS);
        extra.push(ep);
    }
    let setups: Vec<f64> = episodes.iter().chain(&extra).map(|e| e.setup_s).collect();
    let warmups: Vec<f64> = episodes.iter().chain(&extra).map(|e| e.warmup_s).collect();
    let peak_rss = bdm_util::peak_rss_bytes().unwrap_or(0) as f64;
    let (steal1, ticks1) = host_ticks();
    let host_steal_share = ratio((steal1 - steal0) as f64, (ticks1 - ticks0) as f64);

    let samples: Vec<f64> = episodes
        .iter()
        .flat_map(|e| e.samples.iter().copied())
        .collect();
    let live_sum: f64 = episodes.iter().map(|e| e.live_sum).sum();
    let steady_wall: f64 = samples.iter().sum();

    let mut out = Json::default();
    out.str("workload", w.name)
        .num("episodes", episodes.len() as f64)
        .num(
            "attempted",
            episodes
                .iter()
                .chain(&extra)
                .map(|e| e.attempted)
                .sum::<u64>() as f64,
        )
        .num(
            "failed",
            episodes.iter().chain(&extra).map(|e| e.failed).sum::<u64>() as f64,
        )
        .num("steady_samples", samples.len() as f64)
        .num("setup_s", median(&setups))
        .num("warmup_s", median(&warmups))
        .num("iter_p50_s", quantile(&samples, 0.5))
        .num("iter_p90_s", quantile(&samples, 0.9))
        .num("agent_updates_per_s", ratio(live_sum, steady_wall))
        .num("peak_rss_mib", peak_rss / MIB)
        .num("host_steal_share", host_steal_share)
        .raw(
            "validate",
            &list_json(validates.iter().map(|v| validate_json(v))),
        )
        .raw(
            "digests",
            &list_json(digests.iter().map(|d| format!("\"{d}\""))),
        );

    if traced {
        let records: Vec<&IterRecord> = episodes.iter().flat_map(|e| e.records.iter()).collect();
        layer_metrics(&mut out, &records);
        if let Some((sim, ring)) = end_state {
            kernel_metrics(&mut out, &sim);
            out.num(
                "checkpoint.ring_mib",
                ring.as_ref()
                    .map_or(0.0, |r| r.resident_bytes() as f64 / MIB),
            );
        }
        out.num("host.dram_read_ns", dram_probe_ns());
        if let Some(path) = &args.trace_out {
            write_records(path, w.name, &records);
        }
    }
    println!("{}", out.finish());
}

/// Per-layer figures from the traced records (steady window unless noted).
fn layer_metrics(out: &mut Json, records: &[&IterRecord]) {
    let steady: Vec<&IterRecord> = records.iter().copied().filter(|r| r.steady).collect();
    let op_median = |name: &str| {
        let k = OPS.iter().position(|&n| n == name).expect("known op");
        let v: Vec<f64> = steady
            .iter()
            .filter(|r| r.ops[k].1 > 0)
            .map(|r| r.ops[k].0)
            .collect();
        median(&v)
    };
    let n = steady.len().max(1) as f64;
    let sum = |f: &dyn Fn(&IterRecord) -> u64| steady.iter().map(|r| f(r)).sum::<u64>() as f64;
    let force = sum(&|r| r.delta.force);
    let blocks = sum(&|r| r.local_steals + r.remote_steals + r.owned_blocks);
    let captures: Vec<f64> = records.iter().filter_map(|r| r.capture_s).collect();
    let last = steady.last();
    let allocs = |r: &&IterRecord| {
        (
            r.delta.pool_allocs,
            r.delta.pool_allocs + r.delta.sys_allocs,
        )
    };
    let (pool, all) = records
        .iter()
        .map(allocs)
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    out.num("core.agent_ops_s", op_median(builtin::AGENT_OPS))
        .num("core.snapshot_s", op_median(builtin::SNAPSHOT))
        .num("core.teardown_s", op_median(builtin::TEARDOWN))
        .num("core.agent_sorting_s", op_median(builtin::AGENT_SORTING))
        .num("core.health_check_s", op_median(builtin::HEALTH_CHECK))
        .num("core.agents_added_per_iter", sum(&|r| r.delta.added) / n)
        .num(
            "core.agents_removed_per_iter",
            sum(&|r| r.delta.removed) / n,
        )
        .num("core.force_calcs_per_iter", force / n)
        .num(
            "core.batched_force_share",
            ratio(sum(&|r| r.delta.batched), force),
        )
        .num(
            "core.violations",
            records.iter().map(|r| r.delta.violations).sum::<u64>() as f64,
        )
        .num("env.environment_update_s", op_median(builtin::ENVIRONMENT))
        .num(
            "env.index_mib",
            last.map_or(0.0, |r| r.env_bytes as f64 / MIB),
        )
        .num("diffusion.diffusion_s", op_median(builtin::DIFFUSION))
        .num(
            "alloc.pool_reserved_mib",
            last.map_or(0.0, |r| r.pool_reserved as f64 / MIB),
        )
        .num("alloc.pool_alloc_share", ratio(pool as f64, all as f64))
        .num(
            "numa.steal_share",
            ratio(sum(&|r| r.local_steals + r.remote_steals), blocks),
        )
        .num(
            "numa.remote_steal_share",
            ratio(sum(&|r| r.remote_steals), blocks),
        )
        .num("checkpoint.capture_s", median(&captures));
}

/// Times kernel calls into the layers on the end state of the last episode.
fn kernel_metrics(out: &mut Json, sim: &Simulation) {
    let positions: Vec<bdm_core::Real3> = {
        let mut p = Vec::with_capacity(sim.num_agents());
        sim.for_each_agent(|_, a| p.push(a.position()));
        p
    };
    let n = positions.len().max(1) as f64;
    let radius = sim
        .param()
        .interaction_radius
        .unwrap_or(sim.snapshot().max_diameter)
        .max(1e-6);
    let cloud = SliceCloud(&positions);

    // bdm_env: grid build, then one fixed-radius query at every agent.
    let mut env = EnvironmentKind::UniformGrid.create();
    let build = timed_median(|| env.update(&cloud, radius));
    let mut scratch = NeighborQueryScratch::new();
    let mut neighbors = 0u64;
    let query = timed_median(|| {
        neighbors = 0;
        for (i, &p) in positions.iter().enumerate() {
            env.for_each_neighbor(&cloud, p, Some(i), radius, &mut scratch, &mut |_, _, _| {
                neighbors += 1
            });
        }
        black_box(neighbors);
    });
    out.num("env.grid_build_ns_per_agent", build * 1e9 / n)
        .num("env.neighbor_query_ns", query * 1e9 / n)
        .num("env.neighbors_per_query", neighbors as f64 / n);

    // bdm_diffusion: one step of a copy of the first grid.
    let diffusion_ns = if sim.num_diffusion_grids() > 0 {
        let mut grid = sim.diffusion_grid(0).clone();
        let dt = sim.param().simulation_time_step;
        let t = timed_median(|| grid.step(dt));
        t * 1e9 / grid.num_volumes() as f64
    } else {
        0.0
    };
    out.num("diffusion.step_ns_per_voxel", diffusion_ns);

    // bdm_sfc: Morton-encode the positions on a grid of interaction-radius
    // boxes and order the agents by code.
    let lo = positions
        .iter()
        .fold(bdm_core::Real3::splat(f64::MAX), |m, p| {
            bdm_core::Real3::new(m.x().min(p.x()), m.y().min(p.y()), m.z().min(p.z()))
        });
    let order = timed_median(|| {
        let mut keyed: Vec<(u64, u32)> = positions
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let c = |v: f64, l: f64| ((v - l) / radius) as u32;
                let code =
                    bdm_sfc::morton3_encode(c(p.x(), lo.x()), c(p.y(), lo.y()), c(p.z(), lo.z()));
                (code, i as u32)
            })
            .collect();
        keyed.sort_unstable();
        black_box(&keyed);
    });
    out.num("sfc.morton_order_ns_per_agent", order * 1e9 / n);

    // bdm_checkpoint: full checkpoint and restore of the end state.
    let mut bytes = Vec::new();
    let write = timed_median(|| bytes = bdm_checkpoint::checkpoint(sim).expect("checkpoint"));
    let registry = Registry::with_builtin_types();
    let restore = timed_median(|| {
        black_box(bdm_checkpoint::restore(&bytes, &registry).expect("restore"));
    });
    let mib = bytes.len() as f64 / MIB;
    out.num("checkpoint.write_mib_per_s", ratio(mib, write))
        .num("checkpoint.restore_mib_per_s", ratio(mib, restore))
        .num("checkpoint.bytes_per_agent", bytes.len() as f64 / n);
}

/// Median wall time of [`KERNEL_REPS`] calls of `f`.
fn timed_median(mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..KERNEL_REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// Latency of dependent random reads over a 32 MiB array, in ns per read:
/// a probe of the host's memory system, reported beside the layers so
/// host drift can be told from a program change.
fn dram_probe_ns() -> f64 {
    const LEN: usize = 8 << 20; // 8 Mi u32 = 32 MiB
    const READS: usize = 2_000_000;
    // One random cycle through all slots (Sattolo's shuffle), fixed seed.
    let mut next: Vec<u32> = (0..LEN as u32).collect();
    let mut rng = bdm_core::SimRng::new(0x5eed);
    for i in (1..LEN).rev() {
        let j = (rng.uniform() * i as f64) as usize % i;
        next.swap(i, j);
    }
    let mut at = 0u32;
    let t = Instant::now();
    for _ in 0..READS {
        at = next[at as usize];
    }
    black_box(at);
    t.elapsed().as_secs_f64() * 1e9 / READS as f64
}

/// Writes the traced records as JSON lines.
fn write_records(path: &str, workload: &str, records: &[&IterRecord]) {
    let mut text = String::new();
    for r in records {
        let mut j = Json::default();
        j.str("workload", workload)
            .num("iteration", r.iteration as f64)
            .raw("steady", if r.steady { "true" } else { "false" })
            .num("live", r.live as f64)
            .num("step_s", r.step_s)
            .num("capture_s", r.capture_s.unwrap_or(0.0));
        for (name, (secs, runs)) in OPS.iter().zip(r.ops) {
            if runs > 0 {
                j.num(&format!("op.{name}_s"), secs);
            }
        }
        j.num("added", r.delta.added as f64)
            .num("removed", r.delta.removed as f64)
            .num("force_calcs", r.delta.force as f64)
            .num("batched_force", r.delta.batched as f64)
            .num("violations", r.delta.violations as f64)
            .num("pool_allocs", r.delta.pool_allocs as f64)
            .num("sys_allocs", r.delta.sys_allocs as f64)
            .num("local_steals", r.local_steals as f64)
            .num("remote_steals", r.remote_steals as f64)
            .num("owned_blocks", r.owned_blocks as f64)
            .num("pool_reserved_bytes", r.pool_reserved as f64)
            .num("env_bytes", r.env_bytes as f64)
            .num("ring_bytes", r.ring_bytes as f64);
        text.push_str(&j.finish());
        text.push('\n');
    }
    if let Some(dir) = std::path::Path::new(path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("perfbench: cannot write {path}: {e}");
    }
}
