//! The Edge TPU compiler emulation.
//!
//! Two entry points:
//!
//! * [`compile`] — the *deployment* path every scheduler shares: validate
//!   a schedule, allocate parameter caching, and aggregate per-segment
//!   resources for the executor. Cheap.
//! * [`EdgeTpuCompiler`] — the *commercial toolchain* emulation used as
//!   the paper's heuristic baseline. Like the real `edgetpu_compiler`, it
//!   touches every weight byte: materializes the float parameters,
//!   quantizes them to int8 (min/max scan + rescale, the TFLite/Toco
//!   post-training scheme the paper mentions in Step 4), lays the bytes
//!   out into per-stage binary images, and partitions with the
//!   parameter-balancing heuristic. Its wall-clock is therefore
//!   `O(weight bytes)` — the origin of the paper's Fig. 3 solving-time
//!   gap against RESPECT's single forward pass.

use respect_graph::{Dag, NodeId};
use respect_sched::balanced::OpBalanced;
use respect_sched::{Schedule, ScheduleError, Scheduler};

use crate::caching;
use crate::device::DeviceSpec;

/// One pipeline stage of a compiled model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Stage index.
    pub stage: usize,
    /// Operators in execution order.
    pub nodes: Vec<NodeId>,
    /// Total parameter bytes.
    pub param_bytes: u64,
    /// Parameter bytes resident in SRAM.
    pub cached_bytes: u64,
    /// Parameter bytes streamed per inference.
    pub streamed_bytes: u64,
    /// MACs per inference.
    pub macs: u64,
    /// Activation bytes entering from earlier stages, per inference.
    pub input_bytes: u64,
    /// Activation bytes leaving to later stages, per inference.
    pub output_bytes: u64,
}

/// A model compiled for an `n`-stage pipelined Edge TPU system.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledPipeline {
    /// Per-stage segments, one per pipeline stage.
    pub segments: Vec<Segment>,
    /// The schedule the pipeline was compiled from.
    pub schedule: Schedule,
}

impl CompiledPipeline {
    /// Number of pipeline stages.
    pub fn num_stages(&self) -> usize {
        self.segments.len()
    }
}

/// Compiles a schedule into per-stage segments (deployment path).
///
/// # Errors
///
/// Returns the schedule's own validation error if it does not fit `dag`.
pub fn compile(
    dag: &Dag,
    schedule: &Schedule,
    spec: &DeviceSpec,
) -> Result<CompiledPipeline, ScheduleError> {
    schedule.validate(dag)?;
    let allocations = caching::allocate(dag, schedule, spec);
    let mut segments: Vec<Segment> = allocations
        .iter()
        .enumerate()
        .map(|(k, a)| Segment {
            stage: k,
            nodes: a.placement.iter().map(|&(v, _)| v).collect(),
            param_bytes: a.total_bytes(),
            cached_bytes: a.cached_bytes,
            streamed_bytes: a.streamed_bytes,
            macs: 0,
            input_bytes: 0,
            output_bytes: 0,
        })
        .collect();
    for (id, node) in dag.iter() {
        segments[schedule.stage(id)].macs += node.macs;
    }
    for (u, v) in dag.edges() {
        let (su, sv) = (schedule.stage(u), schedule.stage(v));
        if su != sv {
            let bytes = dag.node(u).output_bytes;
            segments[su].output_bytes += bytes;
            segments[sv].input_bytes += bytes;
        }
    }
    Ok(CompiledPipeline {
        segments,
        schedule: schedule.clone(),
    })
}

/// Statistics of a full (toolchain-emulating) compile.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileStats {
    /// Bytes written into stage binary images.
    pub binary_bytes: u64,
    /// Worst observed absolute quantization error, in units of each
    /// tensor's quantization step (must be <= 0.5 + epsilon).
    pub max_quant_error_steps: f32,
    /// Simple integrity checksum over all emitted images.
    pub checksum: u64,
}

/// Output of [`EdgeTpuCompiler::compile_full`].
#[derive(Debug, Clone)]
pub struct CompileOutput {
    /// The compiled pipeline (deployable).
    pub pipeline: CompiledPipeline,
    /// Toolchain statistics.
    pub stats: CompileStats,
}

/// Commercial Edge TPU compiler emulation (heuristic baseline).
///
/// Mirrors the paper-era pipelined-deployment flow: the model is
/// partitioned into `num_segments` contiguous segments of equal operator
/// count, and `edgetpu_compiler` is invoked **once per segment**; each
/// invocation parses and processes the *whole* model's weights
/// (materialization, int8 quantization, layout) and emits one segment
/// binary, optionally through the filesystem as the real flow does. The
/// resulting `O(num_segments · weight_bytes)` wall-clock is what Fig. 3
/// measures for the commercial compiler.
#[derive(Debug, Clone, Copy)]
pub struct EdgeTpuCompiler {
    spec: DeviceSpec,
    emulate_file_io: bool,
    per_segment_invocations: bool,
}

impl EdgeTpuCompiler {
    /// Creates a compiler with full toolchain emulation (per-segment
    /// invocations + filesystem round-trips).
    pub fn new(spec: DeviceSpec) -> Self {
        EdgeTpuCompiler {
            spec,
            emulate_file_io: true,
            per_segment_invocations: true,
        }
    }

    /// A lightweight variant for tests: single invocation, no file I/O.
    /// Produces the identical schedule and binaries.
    pub fn fast(spec: DeviceSpec) -> Self {
        EdgeTpuCompiler {
            spec,
            emulate_file_io: false,
            per_segment_invocations: false,
        }
    }

    /// Full compile. Deterministic: the same model and stage count always
    /// produce the same binaries and stats.
    ///
    /// # Errors
    ///
    /// Propagates partitioning errors (e.g. zero stages).
    pub fn compile_full(
        &self,
        dag: &Dag,
        num_stages: usize,
    ) -> Result<CompileOutput, ScheduleError> {
        let schedule = OpBalanced::new().schedule(dag, num_stages)?;
        let pipeline = compile(dag, &schedule, &self.spec)?;

        let invocations = if self.per_segment_invocations {
            num_stages.max(1)
        } else {
            1
        };
        let mut images: Vec<Vec<u8>> = Vec::new();
        let mut max_err_steps = 0f32;
        // One toolchain invocation per emitted segment; each reprocesses
        // every weight byte of the model, as the real flow does.
        for invocation in 0..invocations {
            let (imgs, err) = quantize_and_layout(dag, &pipeline.schedule, num_stages);
            max_err_steps = max_err_steps.max(err);
            if invocation == 0 {
                images = imgs;
            }
        }
        let mut binary_bytes = 0u64;
        let mut checksum = 0u64;
        let tmp_dir = self.emulate_file_io.then(|| {
            let dir = std::env::temp_dir().join(format!(
                "respect_tpu_compile_{}_{num_stages}",
                std::process::id()
            ));
            std::fs::create_dir_all(&dir).ok();
            dir
        });
        for (k, img) in images.iter().enumerate() {
            binary_bytes += img.len() as u64;
            // emit through the filesystem (segment .tflite round-trip)
            let bytes: std::borrow::Cow<'_, [u8]> = match &tmp_dir {
                Some(dir) => {
                    let path = dir.join(format!("segment_{k}.bin"));
                    std::fs::write(&path, img).ok();
                    let back = std::fs::read(&path).unwrap_or_else(|_| img.clone());
                    std::fs::remove_file(&path).ok();
                    std::borrow::Cow::Owned(back)
                }
                None => std::borrow::Cow::Borrowed(img.as_slice()),
            };
            // FNV-1a over the image — the integrity pass of a serializer
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for &b in bytes.iter() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            checksum ^= h;
        }
        if let Some(dir) = tmp_dir {
            std::fs::remove_dir_all(dir).ok();
        }
        Ok(CompileOutput {
            pipeline,
            stats: CompileStats {
                binary_bytes,
                max_quant_error_steps: max_err_steps,
                checksum,
            },
        })
    }

    /// The device spec this compiler targets.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }
}

/// Materializes float weights deterministically per node, quantizes them
/// to int8 (min/max scan + rescale), and lays them out into per-stage
/// binary images. Returns the images and the worst quantization error in
/// quantization steps.
fn quantize_and_layout(dag: &Dag, schedule: &Schedule, num_stages: usize) -> (Vec<Vec<u8>>, f32) {
    let mut images: Vec<Vec<u8>> = vec![Vec::new(); num_stages];
    let mut max_err_steps = 0f32;
    let mut float_buf: Vec<f32> = Vec::new();
    for (id, node) in dag.iter() {
        let n = node.param_bytes as usize;
        if n == 0 {
            continue;
        }
        float_buf.clear();
        float_buf.reserve(n);
        let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ (id.index() as u64 + 1).wrapping_mul(0xb5);
        for _ in 0..n {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let r = state.wrapping_mul(0x2545_f491_4f6c_dd1d);
            float_buf.push(((r >> 40) as f32 / (1u64 << 24) as f32) - 0.5);
        }
        let (mut lo, mut hi) = (f32::MAX, f32::MIN);
        for &w in &float_buf {
            lo = lo.min(w);
            hi = hi.max(w);
        }
        let scale = ((hi - lo) / 255.0).max(f32::MIN_POSITIVE);
        let img = &mut images[schedule.stage(id)];
        img.reserve(n);
        for &w in &float_buf {
            let q = (((w - lo) / scale).round() as i32).clamp(0, 255) as u8;
            let deq = q as f32 * scale + lo;
            let err_steps = (deq - w).abs() / scale;
            if err_steps > max_err_steps {
                max_err_steps = err_steps;
            }
            img.push(q);
        }
    }
    (images, max_err_steps)
}

impl Scheduler for EdgeTpuCompiler {
    fn name(&self) -> &str {
        "EdgeTPU compiler"
    }

    /// Runs the **full** toolchain and returns its schedule — so timing
    /// this call measures what Fig. 3 measures for the commercial
    /// compiler.
    fn schedule(&self, dag: &Dag, num_stages: usize) -> Result<Schedule, ScheduleError> {
        Ok(self.compile_full(dag, num_stages)?.pipeline.schedule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use respect_graph::models;
    use respect_sched::balanced::ParamBalanced;

    #[test]
    fn compile_aggregates_match_cost_model() {
        let dag = models::resnet50();
        let spec = DeviceSpec::coral();
        let schedule = ParamBalanced::new().schedule(&dag, 4).unwrap();
        let p = compile(&dag, &schedule, &spec).unwrap();
        assert_eq!(p.num_stages(), 4);
        let res = spec.cost_model().stage_resources(&dag, &schedule);
        for (seg, r) in p.segments.iter().zip(&res) {
            assert_eq!(seg.param_bytes, r.param_bytes);
            assert_eq!(seg.macs, r.macs);
            assert_eq!(seg.input_bytes, r.cut_in_bytes);
        }
        // every node appears in exactly one segment
        let total_nodes: usize = p.segments.iter().map(|s| s.nodes.len()).sum();
        assert_eq!(total_nodes, dag.len());
    }

    #[test]
    fn compile_rejects_invalid_schedule() {
        let dag = models::xception();
        // all nodes on the last stage except the sink's parent chain start:
        // easiest invalid schedule: reverse stages of a valid one
        let valid = ParamBalanced::new().schedule(&dag, 4).unwrap();
        let reversed: Vec<usize> = valid.stage_of().iter().map(|&s| 3 - s).collect();
        let bad = Schedule::new(reversed, 4).unwrap();
        assert!(compile(&dag, &bad, &DeviceSpec::coral()).is_err());
    }

    #[test]
    fn adjacent_io_bytes_are_consistent() {
        let dag = models::resnet101();
        let spec = DeviceSpec::coral();
        let schedule = ParamBalanced::new().schedule(&dag, 5).unwrap();
        let p = compile(&dag, &schedule, &spec).unwrap();
        let total_out: u64 = p.segments.iter().map(|s| s.output_bytes).sum();
        let total_in: u64 = p.segments.iter().map(|s| s.input_bytes).sum();
        assert_eq!(total_out, total_in, "every crossing byte has both ends");
    }

    /// Small synthetic model so the full (file-I/O, per-segment) path
    /// stays fast in debug tests.
    fn small_dag() -> Dag {
        use respect_graph::{DagBuilder, OpKind, OpNode};
        let mut b = DagBuilder::new();
        let mut prev = None;
        for i in 0..8 {
            let id = b.add_node(
                OpNode::new(format!("n{i}"), OpKind::Conv2d)
                    .with_params(10_000 + i * 1000)
                    .with_output(64)
                    .with_macs(1_000),
            );
            if let Some(p) = prev {
                b.add_edge(p, id).unwrap();
            }
            prev = Some(id);
        }
        b.build().unwrap()
    }

    #[test]
    fn full_compile_is_deterministic() {
        let dag = small_dag();
        let c = EdgeTpuCompiler::new(DeviceSpec::coral());
        let a = c.compile_full(&dag, 4).unwrap();
        let b = c.compile_full(&dag, 4).unwrap();
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.pipeline, b.pipeline);
    }

    #[test]
    fn fast_and_full_paths_agree_on_results() {
        let dag = small_dag();
        let full = EdgeTpuCompiler::new(DeviceSpec::coral())
            .compile_full(&dag, 3)
            .unwrap();
        let fast = EdgeTpuCompiler::fast(DeviceSpec::coral())
            .compile_full(&dag, 3)
            .unwrap();
        assert_eq!(full.stats, fast.stats);
        assert_eq!(full.pipeline, fast.pipeline);
    }

    #[test]
    fn full_compile_touches_every_weight_byte() {
        let dag = models::resnet50();
        let c = EdgeTpuCompiler::fast(DeviceSpec::coral());
        let out = c.compile_full(&dag, 4).unwrap();
        assert_eq!(out.stats.binary_bytes, dag.total_param_bytes());
        assert!(out.stats.checksum != 0);
    }

    #[test]
    fn quantization_error_is_within_half_step() {
        let dag = small_dag();
        let c = EdgeTpuCompiler::fast(DeviceSpec::coral());
        let out = c.compile_full(&dag, 4).unwrap();
        assert!(
            out.stats.max_quant_error_steps <= 0.5 + 1e-3,
            "err = {} steps",
            out.stats.max_quant_error_steps
        );
    }

    #[test]
    fn scheduler_impl_matches_op_balanced() {
        let dag = models::densenet121();
        let c = EdgeTpuCompiler::fast(DeviceSpec::coral());
        let via_compiler = c.schedule(&dag, 4).unwrap();
        let via_heuristic = OpBalanced::new().schedule(&dag, 4).unwrap();
        assert_eq!(via_compiler, via_heuristic);
        assert_eq!(c.name(), "EdgeTPU compiler");
    }
}
