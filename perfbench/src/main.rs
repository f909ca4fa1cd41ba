//! Closed-loop benchmark of the CereSZ host codec and the simulated wafer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <codec-fields|codec-tuned|wse-stream> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One client issues one operation at a time, on one thread: the codec runs
//! with `Parallelism::Serial` and the simulator with `SimOptions::default()`
//! (one thread). Inputs are generated from the seed. Set-up (input
//! generation plus an untimed warm-up pass) is repeated and its median
//! reported as `setup_s`. With `--trace 0` the run times whole passes over
//! the inputs for `--seconds` and prints the end-to-end metrics, each time
//! in CPU seconds scaled by the host's speed around the operation (see
//! `calib.rs`); with
//! `--trace 1` it alternates untraced and traced operations and prints the
//! per-layer metrics, writing the spans to `perfbench/out/`. Every output is
//! checked; the last line of standard output is the JSON result. See
//! `perfbench/README.md` for the workloads and metrics.

mod calib;
mod codec;
mod stats;
mod trace;
mod wse;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use calib::{Calibrator, CpuInstant, Load, Speed};
use stats::{mb_per_s, median, ratio_or_zero, tail};
use trace::{self_times, Tracer};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Calibration runs before and after each set-up.
const CAL_AROUND_SETUP: usize = 9;

/// Seconds of operation per calibration run after it.
const CAL_EVERY_S: f64 = 0.2;

/// Most calibration runs after one operation.
const CAL_MAX: usize = 5;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["codec-fields", "codec-tuned", "wse-stream"];

/// One operation: compress an input with the workload's entry point, then
/// decompress the output on the host.
pub struct Op {
    /// Input bytes compressed.
    pub bytes: usize,
    /// Seconds in the compression entry point.
    pub compress_s: f64,
    /// Seconds in the host decompression.
    pub decompress_s: f64,
    /// Whether every check on the outputs passed.
    pub ok: bool,
}

impl Op {
    /// The operation with its times scaled from `speed` to the reference
    /// host: compression as `load`, decompression as [`Load::Codec`].
    fn normalized(&self, speed: Speed, load: Load) -> Self {
        Self {
            compress_s: self.compress_s / speed.slowdown(load),
            decompress_s: self.decompress_s / speed.slowdown(Load::Codec),
            ..*self
        }
    }

    /// An operation whose compression returned an error.
    pub fn failed(bytes: usize, compress_s: f64) -> Self {
        Self {
            bytes,
            compress_s,
            decompress_s: 0.0,
            ok: false,
        }
    }
}

/// Exact quantities of a workload, fixed by its inputs. A quantity of a
/// layer the workload does not exercise reads 0.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Counts {
    /// Input bytes over compressed bytes, over all inputs.
    pub ratio: f64,
    /// `StrategyRun::throughput_gbps()`: simulated CS-2 GB/s.
    pub wafer_gbps: f64,
    /// Mean per-block fixed length in bits.
    pub mean_bits: f64,
    /// Share of blocks on the zero-block path.
    pub zero_block_frac: f64,
    /// Simulator events processed.
    pub events: u64,
    /// Simulated makespan in ticks.
    pub finish_ticks: u64,
    /// PE tasks executed.
    pub tasks: u64,
    /// Wavelets moved over the fabric.
    pub wavelets: u64,
    /// Mean utilization of the active PEs.
    pub utilization: f64,
    /// Analyzer critical path over observed finish ticks.
    pub cp_bound_ratio: f64,
}

/// A workload after set-up: its generated inputs and the reference outputs
/// of its warm-up pass.
pub trait Workload {
    /// Operations in one pass over the inputs.
    fn ops_per_pass(&self) -> usize;
    /// Operation `i` of a pass, untraced.
    fn run(&mut self, i: usize) -> Op;
    /// Operation `i` of a pass, with spans around the calls into each layer.
    fn run_traced(&mut self, i: usize, tr: &mut Tracer) -> Op;
    /// Corrupt one output and report whether the output check rejects it.
    fn corrupted_output_is_caught(&mut self) -> bool;
    /// Whether the warm-up pass passed its checks.
    fn warm_ok(&self) -> bool;
    /// The workload's exact quantities.
    fn counts(&self) -> Counts;
    /// The workload's parameters, as a JSON object.
    fn params(&self) -> String;
}

/// Generate the inputs and run the warm-up pass. Returns the workload and
/// the seconds spent generating inputs.
fn setup(name: &str, seed: u64) -> (Box<dyn Workload>, f64) {
    match name {
        "codec-fields" | "codec-tuned" => {
            let (w, gen_s) = codec::CodecWorkload::new(seed, name == "codec-tuned");
            (Box::new(w), gen_s)
        }
        "wse-stream" => {
            let (w, gen_s) = wse::WseWorkload::new(seed);
            (Box::new(w), gen_s)
        }
        _ => unreachable!("workload names are checked when parsed"),
    }
}

/// What a workload's compression and set-up times are scaled by.
/// Decompression is the host codec on every workload and is scaled as
/// [`Load::Codec`].
fn load(name: &str) -> Load {
    if name == "wse-stream" {
        Load::Simulator
    } else {
        Load::Codec
    }
}

/// Calibration runs after an operation of `secs`: one per
/// [`CAL_EVERY_S`] of it, from one to [`CAL_MAX`], so that a long
/// operation is scaled by a steadier speed.
fn cal_runs(secs: f64) -> usize {
    ((secs / CAL_EVERY_S).ceil() as usize).clamp(1, CAL_MAX)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{flag}'"))?
            .to_owned();
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        kv.insert(key, value);
    }
    let mut get = |k: &str| kv.remove(k).ok_or_else(|| format!("--{k} is required"));
    let workload = get("workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not '{t}'")),
    };
    if let Some(k) = kv.keys().next() {
        return Err(format!("unknown option --{k}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };

    // Set-up, repeated; the last workload built is the one measured.
    let mut setup_s = Vec::new();
    let mut gen_s = Vec::new();
    let mut counts = Vec::new();
    let mut warm_ok = true;
    let mut built: Option<Box<dyn Workload>> = None;
    let compress_load = load(&args.workload);
    let mut cal = Calibrator::new();
    let mut setup_raw = Vec::new();
    let mut before = cal.measure(CAL_AROUND_SETUP);
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let t = CpuInstant::now();
        let (w, g) = setup(&args.workload, args.seed);
        let secs = t.elapsed_s();
        let after = cal.measure(CAL_AROUND_SETUP);
        setup_raw.push(secs);
        setup_s.push(secs / Speed::around(before, after).slowdown(compress_load));
        before = after;
        gen_s.push(g);
        warm_ok &= w.warm_ok();
        counts.push(w.counts());
        built = Some(w);
    }
    let mut w = built.expect("at least one set-up");
    let counts_repeat = counts.windows(2).all(|c| c[0] == c[1]);
    let self_test = w.corrupted_output_is_caught();

    let provenance = provenance(&args, w.params());
    println!("{{\"provenance\": {provenance}}}");

    let per_pass = w.ops_per_pass();
    let t0 = Instant::now();
    let mut ops: Vec<Vec<Op>> = (0..per_pass).map(|_| Vec::new()).collect();
    let mut raw: Vec<Vec<Op>> = (0..per_pass).map(|_| Vec::new()).collect();
    let mut speeds = vec![before];
    let mut pairs: Vec<(Op, Op)> = Vec::new();
    let mut tr = Tracer::new();
    let mut passes = 0;
    while passes == 0 || t0.elapsed().as_secs_f64() < args.seconds {
        for (i, slot) in ops.iter_mut().enumerate() {
            if args.trace {
                // Alternate which of the pair runs first, so that a drift
                // in machine speed cancels between the two sides.
                let op = pairs.len() as u64;
                tr.set_op(op);
                let pair = if op.is_multiple_of(2) {
                    let plain = w.run(i);
                    (plain, w.run_traced(i, &mut tr))
                } else {
                    let traced = w.run_traced(i, &mut tr);
                    (w.run(i), traced)
                };
                pairs.push(pair);
            } else {
                let op = w.run(i);
                let after = cal.measure(cal_runs(op.compress_s + op.decompress_s));
                slot.push(op.normalized(Speed::around(before, after), compress_load));
                raw[i].push(op);
                speeds.push(after);
                before = after;
            }
        }
        passes += 1;
    }
    // The traced path may finish its one-off analysis on the last op.
    let counts_final = w.counts();

    let all: Vec<&Op> = ops
        .iter()
        .flatten()
        .chain(pairs.iter().flat_map(|(a, b)| [a, b]))
        .collect();
    let attempted = all.len();
    let failed = all.iter().filter(|o| !o.ok).count();
    let correct = failed == 0 && warm_ok && self_test && counts_repeat;

    println!(
        "{}: seed {}, {passes} passes of {per_pass} ops in {:.2} s; \
         warm-up {}, counts repeat across set-ups {}, corrupted output caught {}",
        args.workload,
        args.seed,
        t0.elapsed().as_secs_f64(),
        if warm_ok { "ok" } else { "FAILED" },
        counts_repeat,
        self_test
    );

    let metrics = if args.trace {
        let m = per_layer(&tr, &pairs, median(&gen_s), &counts_final);
        write_trace(&args, &provenance, &tr);
        m
    } else {
        report_latency("scaled", &ops);
        report_latency("unscaled", &raw);
        println!(
            "unscaled: setup_s {:.4}, compress_mbps {:.3}, decompress_mbps {:.3}; \
             median calibration: core {:.3} ms, cache {:.3} ms, memory {:.3} ms",
            median(&setup_raw),
            median_pass_mbps(&raw, |o| o.compress_s),
            median_pass_mbps(&raw, |o| o.decompress_s),
            median(&speeds.iter().map(|s| s.core_s).collect::<Vec<_>>()) * 1e3,
            median(&speeds.iter().map(|s| s.cache_s).collect::<Vec<_>>()) * 1e3,
            median(&speeds.iter().map(|s| s.memory_s).collect::<Vec<_>>()) * 1e3,
        );
        end_to_end(&ops, median(&setup_s), &counts_final)
    };
    for (name, value, unit) in &metrics {
        println!("  {name:<46} {value:>16.6} {unit}");
    }
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(*value)
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{body}}}}}"
    );
}

/// A metric: name, value, unit.
type Metric = (String, f64, &'static str);

/// Total bytes over the sum, across a pass's operations, of each
/// operation's median time: the throughput of a median pass.
fn median_pass_mbps(ops: &[Vec<Op>], secs: fn(&Op) -> f64) -> f64 {
    let bytes: usize = ops.iter().map(|o| o[0].bytes).sum();
    let total: f64 = ops
        .iter()
        .map(|o| median(&o.iter().map(secs).collect::<Vec<_>>()))
        .sum();
    mb_per_s(bytes, total)
}

fn end_to_end(ops: &[Vec<Op>], setup_s: f64, c: &Counts) -> Vec<Metric> {
    vec![
        ("setup_s".into(), setup_s, "s"),
        (
            "compress_mbps".into(),
            median_pass_mbps(ops, |o| o.compress_s),
            "MB/s",
        ),
        (
            "decompress_mbps".into(),
            median_pass_mbps(ops, |o| o.decompress_s),
            "MB/s",
        ),
        ("ratio".into(), c.ratio, "x"),
        ("peak_rss_mib".into(), peak_rss_mib(), "MiB"),
    ]
}

/// Print per-operation latency, the median and the highest percentile
/// with at least ten samples beyond it, and each pass's throughput.
fn report_latency(label: &str, ops: &[Vec<Op>]) {
    let passes = ops.iter().map(Vec::len).min().unwrap_or(0);
    let per_pass: Vec<String> = (0..passes)
        .map(|p| {
            let bytes: usize = ops.iter().map(|o| o[p].bytes).sum();
            let secs: f64 = ops.iter().map(|o| o[p].compress_s).sum();
            format!("{:.2}", mb_per_s(bytes, secs))
        })
        .collect();
    println!("{label} compress MB/s by pass: {}", per_pass.join(" "));
    for (what, secs) in [
        ("compress", (|o: &Op| o.compress_s) as fn(&Op) -> f64),
        ("decompress", |o: &Op| o.decompress_s),
    ] {
        let ms: Vec<f64> = ops.iter().flatten().map(|o| secs(o) * 1e3).collect();
        let tail = tail(&ms).map_or_else(
            || format!("no percentile has 10 samples beyond it (n={})", ms.len()),
            |t| {
                format!(
                    "p{} {:.3} ms (n={}, {} beyond)",
                    t.pct, t.value, t.n, t.beyond
                )
            },
        );
        println!(
            "{label} {what} latency per op: median {:.3} ms, {tail}",
            median(&ms)
        );
    }
}

/// The codec kernels traced on `codec-fields`, by metric stem.
const KERNELS: [&str; 8] = [
    "quantize",
    "lorenzo_fwd",
    "sign_max",
    "bit_shuffle",
    "bit_unshuffle",
    "apply_signs",
    "lorenzo_inv",
    "dequantize",
];

/// Layers with a self-time metric.
const LAYERS: [&str; 5] = [
    "ceresz-core",
    "huffman",
    "ceresz-wse",
    "wse-verify",
    "wse-sim",
];

/// Layers `execute()` runs in.
const WSE_LAYERS: [&str; 3] = ["ceresz-wse", "wse-verify", "wse-sim"];

fn per_layer(tr: &Tracer, pairs: &[(Op, Op)], gen_s: f64, c: &Counts) -> Vec<Metric> {
    let spans = tr.spans();
    let own = self_times(spans);
    // Per span name: total ns, total work, and each duration in seconds.
    let mut by_name: BTreeMap<&str, (u64, u64, Vec<f64>)> = BTreeMap::new();
    for s in spans {
        let e = by_name.entry(s.name).or_default();
        e.0 += s.dur_ns();
        e.1 += s.work;
        e.2.push(s.dur_ns() as f64 * 1e-9);
    }
    let ns_per = |name: &str| {
        by_name
            .get(name)
            .map_or(0.0, |e| ratio_or_zero(e.0 as f64, e.1 as f64))
    };
    let med_s = |name: &str| by_name.get(name).map_or(0.0, |e| median(&e.2));
    let total_s = |name: &str| by_name.get(name).map_or(0.0, |e| e.0 as f64 * 1e-9);

    // Self time inside operations: under a `bench` root, by layer. Spans
    // outside any operation (the one-off analysis) are left out.
    let mut layer_self: BTreeMap<&str, f64> = BTreeMap::new();
    let mut wse_self_by_op: BTreeMap<u64, f64> = BTreeMap::new();
    let mut root_s = 0.0;
    for (i, s) in spans.iter().enumerate() {
        let Some(mut root) = s.parent.or((s.layer() == "bench").then_some(i)) else {
            continue;
        };
        while let Some(p) = spans[root].parent {
            root = p;
        }
        let secs = own[i] as f64 * 1e-9;
        *layer_self.entry(s.layer()).or_default() += secs;
        if s.parent.is_none() {
            root_s += s.dur_ns() as f64 * 1e-9;
        }
        if spans[root].name == "bench.compress" && WSE_LAYERS.contains(&s.layer()) {
            *wse_self_by_op.entry(s.op).or_default() += secs;
        }
    }
    let n_ops = pairs.len() as f64;
    // The fastest traced walk of `execute()` against the fastest untraced
    // `execute()`: a shared host only ever adds time, so the two minima
    // compare the same work where sums would compare host noise.
    let fastest = |xs: &mut dyn Iterator<Item = f64>| xs.fold(f64::INFINITY, f64::min);
    let wse_coverage = if wse_self_by_op.is_empty() {
        0.0
    } else {
        fastest(&mut wse_self_by_op.values().copied())
            / fastest(&mut pairs.iter().map(|(u, _)| u.compress_s))
    };
    let untraced: f64 = pairs
        .iter()
        .map(|(u, _)| u.compress_s + u.decompress_s)
        .sum();
    let traced: f64 = pairs
        .iter()
        .map(|(_, t)| t.compress_s + t.decompress_s)
        .sum();
    let kernel_s: f64 = KERNELS
        .iter()
        .map(|k| total_s(&format!("ceresz-core.{k}")))
        .sum();

    let mut m: Vec<Metric> = vec![("datasets.gen_s".into(), gen_s, "s")];
    for k in KERNELS {
        m.push((
            format!("ceresz-core.{k}_ns_per_elem"),
            ns_per(&format!("ceresz-core.{k}")),
            "ns/elem",
        ));
    }
    m.push((
        "ceresz-core.kernel_coverage".into(),
        if kernel_s > 0.0 {
            kernel_s / untraced
        } else {
            0.0
        },
        "ratio",
    ));
    m.push(("ceresz-core.mean_bits".into(), c.mean_bits, "bits"));
    m.push((
        "ceresz-core.zero_block_frac".into(),
        c.zero_block_frac,
        "ratio",
    ));
    m.push((
        "ceresz-core.tune_s_per_mb".into(),
        ns_per("ceresz-core.tune") * 1e-9 * stats::MB,
        "s/MB",
    ));
    for id in codec::STAGE_IDS {
        for dir in ["encode", "decode"] {
            m.push((
                format!("ceresz-core.stage.{id}.{dir}_ns_per_elem"),
                ns_per(&format!("ceresz-core.stage.{id}.{dir}")),
                "ns/elem",
            ));
        }
    }
    for dir in ["encode", "decode"] {
        m.push((
            format!("huffman.{dir}_ns_per_elem"),
            ns_per(&format!("huffman.{dir}")),
            "ns/elem",
        ));
    }
    for step in ["mesh_new", "map", "assemble"] {
        m.push((
            format!("ceresz-wse.{step}_s"),
            med_s(&format!("ceresz-wse.{step}")),
            "s",
        ));
    }
    m.push(("ceresz-wse.coverage".into(), wse_coverage, "ratio"));
    m.push(("ceresz-wse.wafer_gbps".into(), c.wafer_gbps, "GB/s"));
    m.push((
        "wse-verify.verify_s".into(),
        med_s("wse-verify.verify"),
        "s",
    ));
    m.push((
        "wse-verify.cp_bound_ratio".into(),
        c.cp_bound_ratio,
        "ratio",
    ));
    let run_s = med_s("wse-sim.run");
    m.push(("wse-sim.run_s".into(), run_s, "s"));
    m.push((
        "wse-sim.ns_per_event".into(),
        ratio_or_zero(run_s * 1e9, c.events as f64),
        "ns",
    ));
    m.push(("wse-sim.events".into(), c.events as f64, "count"));
    m.push((
        "wse-sim.finish_ticks".into(),
        c.finish_ticks as f64,
        "ticks",
    ));
    m.push(("wse-sim.tasks".into(), c.tasks as f64, "count"));
    m.push(("wse-sim.wavelets".into(), c.wavelets as f64, "count"));
    m.push(("wse-sim.utilization".into(), c.utilization, "ratio"));
    for layer in LAYERS {
        m.push((
            format!("{layer}.self_s_per_op"),
            layer_self.get(layer).copied().unwrap_or(0.0) / n_ops,
            "s",
        ));
    }
    let covered: f64 = LAYERS.iter().filter_map(|l| layer_self.get(l)).sum();
    m.push((
        "trace.coverage".into(),
        ratio_or_zero(covered, root_s),
        "ratio",
    ));
    m.push((
        "trace.overhead_frac".into(),
        ratio_or_zero(traced - untraced, untraced),
        "ratio",
    ));
    m
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A JSON number; non-finite values (which no metric should produce) are
/// written as 0 so the line stays valid JSON.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The directory of this package, where the trace is written and the
/// repository's metadata is read from.
fn package_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Where and on what the run was measured.
fn provenance(args: &Args, params: String) -> String {
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    format!(
        "{{\"git_rev\": {}, \"rustc\": {}, \"nproc\": {nproc}, \"cpu\": {}, \
         \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"setup_reps\": {SETUP_REPS}, \"serial\": {{\"codec\": \"Parallelism::Serial\", \
         \"simulator\": \"SimOptions::default() (threads 1)\"}}, \"params\": {params}}}",
        json_str(&git_rev()),
        json_str(&rustc),
        json_str(&cpu),
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    )
}

/// The commit checked out, read from the repository's `.git` directory
/// (no `git` process); "unknown" outside a git checkout.
fn git_rev() -> String {
    let git = package_dir().join("../.git");
    let read = |p: &str| std::fs::read_to_string(git.join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown (not a git checkout)".into();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    read(name)
        .map(|r| r.trim().to_owned())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        })
        .unwrap_or_else(|| format!("unknown ({name})"))
}

/// Write the spans once, at the end of the run.
fn write_trace(args: &Args, provenance: &str, tr: &Tracer) {
    let dir = package_dir().join("out");
    let path = dir.join(format!("trace_{}_seed{}.json", args.workload, args.seed));
    let body = format!(
        "{{\"provenance\": {provenance}, \"spans\": {}}}\n",
        tr.to_json()
    );
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
        Ok(()) => println!("trace: {} spans in {}", tr.spans().len(), path.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
}
