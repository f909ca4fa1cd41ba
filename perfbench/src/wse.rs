//! The simulated-wafer workload, `wse-stream`.
//!
//! Each operation is one `execute()` of MultiPipeline rows=128 len=8 p=16
//! on the serial simulator (`SimOptions::default()`), followed by a host
//! decode of the stream it emitted. The input is 32 768 dense, distinct
//! blocks, so the event engine does most of the work and no block is
//! served from the kernels' block memo. The traced variant walks the steps
//! of `execute_strategy` through public calls, with a span around each:
//! `MappedMesh::new`, `Strategy::map`, `MappedMesh::verify`,
//! `Simulator::run`, then `parse_emitted`/`assemble_blocks`.

use ceresz_core::{CereszConfig, Codec, CompressError, Compressed, ErrorBound, Parallelism};
use ceresz_wse::harness::{assemble_blocks, parse_emitted};
use ceresz_wse::verify::MappingManifest;
use ceresz_wse::{
    analyze_mapping, execute, MappedMesh, SimOptions, Strategy, StrategyKind, WseError,
};
use datasets::{generate_field, DatasetId};
use wse_sim::{MeshConfig, RunReport, SimStats};

use crate::calib::CpuInstant;
use crate::codec::{decompressor, within_bound, REL};
use crate::trace::Tracer;
use crate::{Counts, Op, Workload};

/// The mapping every operation executes.
const KIND: StrategyKind = StrategyKind::MultiPipeline {
    rows: 128,
    pipeline_length: 8,
    pipelines_per_row: 16,
};

/// Blocks of 32 values in the input.
const BLOCKS: usize = 32_768;

/// The workload: its input, the serial codec's bytes for it, and the
/// simulator statistics of the warm-up pass.
pub struct WseWorkload {
    cfg: CereszConfig,
    data: Vec<f32>,
    /// Serial `Codec` output on the same input: every run must match it.
    reference: Compressed,
    /// Statistics of the warm-up `execute()`: every run must match them.
    sim: SimStats,
    wafer_gbps: f64,
    /// Analyzer critical path over observed finish ticks, from the first
    /// traced operation.
    cp_bound_ratio: Option<f64>,
    warm_ok: bool,
}

impl WseWorkload {
    /// Generate the input from `seed` and run the warm-up pass. Returns the
    /// workload and the seconds spent generating inputs.
    pub fn new(seed: u64) -> (Self, f64) {
        let cfg = CereszConfig::new(ErrorBound::Rel(REL)).with_parallelism(Parallelism::Serial);
        let t = CpuInstant::now();
        // Dense orbitals from both QMCPack fields: every block distinct.
        let data: Vec<f32> = (0..2)
            .flat_map(|i| generate_field(DatasetId::QmcPack, i, seed).data)
            .take(BLOCKS * cfg.block_size)
            .collect();
        let gen_s = t.elapsed_s();
        let reference = Codec::new(cfg)
            .compress(&data)
            .expect("the generated input is finite and in range");
        let mut w = Self {
            cfg,
            data,
            reference,
            sim: SimStats::default(),
            wafer_gbps: 0.0,
            cp_bound_ratio: None,
            warm_ok: false,
        };
        if let Ok(run) = execute(KIND, &w.data, &w.cfg, &SimOptions::default()) {
            let decoded = decompressor().decompress(&run.compressed.data);
            w.warm_ok = w.output_ok(&run.compressed.data, &decoded);
            w.wafer_gbps = run.throughput_gbps();
            w.sim = run.stats;
        }
        (w, gen_s)
    }

    /// The WSE bytes equal the serial codec's, and their decode lies
    /// within ε.
    fn output_ok(&self, bytes: &[u8], decoded: &Result<Vec<f32>, CompressError>) -> bool {
        bytes == self.reference.data.as_slice()
            && within_bound(&self.data, decoded, self.reference.stats.eps)
    }

    /// `execute_strategy`, step by step, with a span around each step.
    /// Returns the manifest too when `keep_manifest` is set; otherwise it
    /// is dropped before the simulation, as `execute` drops it. The report
    /// is returned so that, as with `execute`, the caller drops it.
    fn traced_execute(
        &self,
        tr: &mut Tracer,
        keep_manifest: bool,
    ) -> Result<(Compressed, RunReport, Option<MappingManifest>), WseError> {
        let blocks = BLOCKS as u64;
        let (rows, cols) = KIND.mesh_shape();
        let mut mesh = tr.leaf("ceresz-wse.mesh_new", blocks, || {
            KIND.validate()?;
            Ok::<_, WseError>(MappedMesh::new(
                KIND.mesh_name(),
                MeshConfig::new(rows, cols),
                rows,
                cols,
            ))
        })?;
        let outcome = tr.leaf("ceresz-wse.map", blocks, || {
            KIND.map(&mut mesh, &self.data, &self.cfg)
        })?;
        let clean = tr.leaf("wse-verify.verify", blocks, || mesh.verify().is_clean());
        if !clean {
            return Err(WseError::InvalidStrategy {
                reason: "static verification rejected the mapping".into(),
            });
        }
        let (sim, manifest) = tr.leaf("ceresz-wse.into_sim", blocks, || {
            let (sim, manifest) = mesh.into_parts();
            (sim, keep_manifest.then_some(manifest))
        });
        let report = tr
            .leaf("wse-sim.run", blocks, || sim.run())
            .map_err(WseError::Sim)?;
        let compressed = tr.leaf("ceresz-wse.assemble", blocks, || {
            let mut emitted = Vec::with_capacity(outcome.slots.len());
            for &(pe, idx) in &outcome.slots {
                let out = report
                    .outputs(pe)
                    .get(idx)
                    .ok_or(CompressError::Truncated)?;
                emitted.push(parse_emitted(out)?);
            }
            assemble_blocks(&outcome.header, &emitted)
        })?;
        Ok((compressed, report, manifest))
    }
}

/// Host decodes per operation: at least [`DECODE_MIN_REPS`], and at least
/// [`DECODE_MIN_S`] seconds of decoding, so that the decode, short next to
/// a seconds-long `execute()`, is timed from more than one sample; the
/// median is reported.
const DECODE_MIN_REPS: usize = 5;
const DECODE_MIN_S: f64 = 0.1;

/// Decode `bytes` repeatedly; returns the last decode and the median time
/// of one.
fn timed_decode(bytes: &[u8]) -> (Result<Vec<f32>, CompressError>, f64) {
    let mut secs = Vec::new();
    let mut total = 0.0;
    let mut decoded = Err(CompressError::Truncated);
    while secs.len() < DECODE_MIN_REPS || total < DECODE_MIN_S {
        let t = CpuInstant::now();
        let d = decompressor().decompress(bytes);
        let s = t.elapsed_s();
        secs.push(s);
        total += s;
        decoded = d;
    }
    (decoded, crate::stats::median(&secs))
}

impl Workload for WseWorkload {
    fn ops_per_pass(&self) -> usize {
        1
    }

    fn run(&mut self, _i: usize) -> Op {
        let t = CpuInstant::now();
        let run = execute(KIND, &self.data, &self.cfg, &SimOptions::default());
        let compress_s = t.elapsed_s();
        let Ok(run) = run else {
            return Op::failed(self.data.len() * 4, compress_s);
        };
        let (decoded, decompress_s) = timed_decode(&run.compressed.data);
        let ok = self.output_ok(&run.compressed.data, &decoded)
            && run.stats == self.sim
            && run.throughput_gbps().to_bits() == self.wafer_gbps.to_bits();
        Op {
            bytes: self.data.len() * 4,
            compress_s,
            decompress_s,
            ok,
        }
    }

    fn run_traced(&mut self, _i: usize, tr: &mut Tracer) -> Op {
        let blocks = BLOCKS as u64;
        let root = tr.enter("bench.compress", blocks);
        let run = self.traced_execute(tr, self.cp_bound_ratio.is_none());
        let compress_s = tr.exit(root);
        let Ok((compressed, report, manifest)) = run else {
            return Op::failed(self.data.len() * 4, compress_s);
        };
        let stats = report.stats();
        if let Some(manifest) = manifest {
            // Outside the root span: the analyzer is not part of `execute`.
            let profile = tr.leaf("wse-verify.analyze", blocks, || analyze_mapping(&manifest));
            self.cp_bound_ratio =
                Some(profile.critical_path.ticks() as f64 / stats.finish_cycle.ticks() as f64);
        }
        // The same repeated decodes as the untraced operation, so that both
        // sides of a pair leave the allocator in the same state.
        let root = tr.enter("bench.decompress", blocks);
        let (decoded, decompress_s) = tr.leaf("ceresz-core.fused.decode", blocks, || {
            timed_decode(&compressed.data)
        });
        tr.exit(root);
        Op {
            bytes: self.data.len() * 4,
            compress_s,
            decompress_s,
            ok: self.output_ok(&compressed.data, &decoded) && *stats == self.sim,
        }
    }

    fn corrupted_output_is_caught(&mut self) -> bool {
        let mut bytes = self.reference.data.clone();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        let decoded = decompressor().decompress(&bytes);
        !self.output_ok(&bytes, &decoded)
    }

    fn warm_ok(&self) -> bool {
        self.warm_ok
    }

    fn counts(&self) -> Counts {
        let s = &self.reference.stats;
        Counts {
            ratio: s.ratio(),
            wafer_gbps: self.wafer_gbps,
            mean_bits: s.mean_fixed_length(),
            zero_block_frac: s.zero_block_fraction(),
            events: self.sim.events_processed,
            finish_ticks: self.sim.finish_cycle.ticks(),
            tasks: self.sim.total_tasks,
            wavelets: self.sim.total_wavelets,
            utilization: self.sim.utilization(),
            cp_bound_ratio: self.cp_bound_ratio.unwrap_or(0.0),
        }
    }

    fn params(&self) -> String {
        let (rows, cols) = KIND.mesh_shape();
        format!(
            "{{\"entry\": \"execute() + Codec::decompressor(Serial)\", \"strategy\": \"{KIND}\", \
             \"mesh\": [{rows}, {cols}], \"pes\": {}, \"blocks\": {}, \"bytes\": {}, \
             \"bound\": \"REL {REL:e}\", \"sim_threads\": 1, \"effective_threads\": {}}}",
            rows * cols,
            BLOCKS,
            self.data.len() * 4,
            SimOptions::default().effective_threads()
        )
    }
}
