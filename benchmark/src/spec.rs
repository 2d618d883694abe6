//! The benchmark's fixed vocabulary: workloads and metrics, by name.
//!
//! `BENCHMARK.json` at the repo root carries the same tables for the
//! driver; a unit test below fails when the two drift apart.

use puffer_gen::{presets, GenError, GeneratorConfig};

/// What a workload times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `place` → `refine` → `eval`, all three timed.
    Chain,
    /// `place` + `refine` happen in set-up; only `eval` is timed.
    EvalOnly,
    /// Four `submit` lines + `drain` piped to `puffer serve --stdin
    /// --workers 2`; spawn → exit is timed.
    ServeBatch,
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One sentence: why this workload exists (also in `BENCHMARK.json`).
    pub why: &'static str,
    pub preset: fn(f64) -> Result<GeneratorConfig, GenError>,
    pub scale: f64,
    /// `--threads` pinned on every command that takes it.
    pub threads: usize,
    pub kind: Kind,
    /// Share by which `flow_wall_s` / `flow_cpu_s` may worsen between two
    /// sets of the same seed before `flowbench compare` calls it a
    /// regression: ISSUE 11's 5 % where the timed section leaves a core
    /// free, its 10 % ceiling where the section keeps both cores busy and so
    /// takes every disturbance from the machine's other tenants.
    pub timing_bound: f64,
}

/// Jobs per `serve_batch_w2` batch and the daemon's worker count.
pub const SERVE_JOBS: usize = 4;
pub const SERVE_WORKERS: usize = 2;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "or1200_chain_t1",
        why: "OR1200 at CI size, place->refine->eval on one thread: pin-heavy (5.8 pins/cell, 1.3 bins/cell) \
              and cache-resident, so the WA gradient and the 1-thread direct-accumulation path carry the step",
        preset: presets::or1200,
        scale: 0.026,
        threads: 1,
        kind: Kind::Chain,
        timing_bound: 0.05,
    },
    Workload {
        name: "ct_top_grid_t2",
        why: "CT_TOP just past an auto_dim step (128x128 bins for 4.3K cells, 3.8 bins/cell) on two threads: \
              density+FFT dominate each step via the puffer-par chunked path; a WA-only change must barely move it",
        preset: presets::ct_top,
        scale: 0.0034,
        threads: 2,
        kind: Kind::Chain,
        timing_bound: 0.10,
    },
    Workload {
        name: "media_eval_t2",
        why: "MEDIA_SUBSYS eval alone (rip-up rounds fire) on a placement made in set-up: the only workload where \
              puffer-route is ~100% of the time; the no-change control for every placer optimisation",
        preset: presets::media_subsys,
        scale: 0.012,
        threads: 2,
        kind: Kind::EvalOnly,
        timing_bound: 0.05,
    },
    Workload {
        name: "serve_batch_w2",
        why: "four identical 1-thread place jobs through puffer serve --stdin --workers 2, every journal on: \
              throughput under shared cache, memory bandwidth and allocator; closed loop, 2 jobs in flight",
        preset: presets::or1200,
        scale: 0.015,
        threads: 1,
        kind: Kind::ServeBatch,
        timing_bound: 0.10,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The README preset this workload places. Every seed sees this design;
    /// the seed only relabels it (see `layers::relabel`).
    pub fn generator(&self) -> Result<GeneratorConfig, GenError> {
        (self.preset)(self.scale)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric definition. `bound` is the share of the parent's median by
/// which the build driver lets an end-to-end metric worsen, across seeds
/// (`BENCHMARK.json`); per-layer metrics have none. `flowbench compare`
/// holds two sets of one seed to the tighter [`Workload::compare_bound`].
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// How far a metric may worsen before `flowbench compare` calls it a
/// regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A share of the baseline median.
    Share(f64),
    /// A distance in the metric's own unit.
    Absolute(f64),
}

impl Workload {
    /// ISSUE 11's bound for `metric` between two sets of the same seed
    /// (where outputs repeat byte for byte, so the quality bounds can be
    /// the issue's and only the timings depend on the machine).
    pub fn compare_bound(&self, metric: &str) -> Bound {
        match metric {
            "setup_s" => Bound::Share(0.15),
            "flow_wall_s" | "flow_cpu_s" => Bound::Share(self.timing_bound),
            "peak_rss_mib" => Bound::Share(0.05),
            "routed_wl" | "hpwl" => Bound::Share(0.005),
            "hof_pct" | "vof_pct" => Bound::Absolute(0.05),
            // failed_share
            _ => Bound::Absolute(0.0),
        }
    }
}

/// The end-to-end metrics the build driver reads, all lower-is-better,
/// reported by every workload. The driver judges them across ten seeds and
/// with one bound per metric for all four workloads, so the three timings
/// carry the widest bound it allows: on the shared 2-core VM this was
/// defined on, other tenants slow identical work by 10–35 % for seconds to
/// minutes at a time (see README, "Noise"). The other bounds are ≥ 3× the
/// cross-seed quartile spread measured.
pub const END_TO_END: [Metric; 6] = [
    e2e("setup_s", "s", 0.25),
    e2e("flow_wall_s", "s", 0.25),
    e2e("flow_cpu_s", "s", 0.25),
    e2e("peak_rss_mib", "MiB", 0.10),
    e2e("routed_wl", "dbu", 0.10),
    e2e("hpwl", "dbu", 0.10),
];

use Better::{Higher, Lower};

/// ISSUE 11's other three end-to-end metrics. They are legitimately 0 (a
/// clean design, no failure), which the driver's table does not allow, so
/// only the suite reports them and only `flowbench compare` judges them.
pub const SUITE_ONLY: [Metric; 3] = [
    layer("hof_pct", "%", Lower),
    layer("vof_pct", "%", Lower),
    layer("failed_share", "ratio", Lower),
];

/// The nine end-to-end metrics of a suite round: [`END_TO_END`], then
/// [`SUITE_ONLY`].
pub fn suite_metrics() -> impl Iterator<Item = &'static Metric> {
    END_TO_END.iter().chain(&SUITE_ONLY)
}

impl Metric {
    /// Whether the traced pass of `w` measures this per-layer metric: the
    /// daemon is probed only on the workload that runs it.
    pub fn applies_to(&self, w: &Workload) -> bool {
        !self.name.starts_with("serve.") || w.kind == Kind::ServeBatch
    }
}

/// Per-layer metrics from the traced pass, in README table order.
pub const PER_LAYER: [Metric; 50] = [
    layer("core.init_s", "s", Lower),
    layer("core.gp_s", "s", Lower),
    layer("core.pad_s", "s", Lower),
    layer("core.legal_s", "s", Lower),
    layer("core.gp_iterations", "count", Lower),
    layer("core.pad_rounds", "count", Lower),
    layer("pad.recycled_cells", "count", Lower),
    layer("place.step_s", "s", Lower),
    layer("place.step_share", "ratio", Higher),
    layer("place.wa_grad_s", "s", Lower),
    layer("place.wa_mpins_per_s", "Mpins/s", Higher),
    layer("place.density_s", "s", Lower),
    layer("fft.transform2d_s", "s", Lower),
    layer("fft.mbins_per_s", "Mbins/s", Higher),
    layer("place.quadratic_init_s", "s", Lower),
    layer("db.hpwl_s", "s", Lower),
    layer("core.gp_unattributed_share", "ratio", Lower),
    layer("core.sys_cpu_share", "ratio", Lower),
    layer("flute.rsmt_s", "s", Lower),
    layer("flute.knets_per_s", "knets/s", Higher),
    layer("congest.estimate_full_s", "s", Lower),
    layer("congest.estimate_incr_s", "s", Lower),
    layer("congest.detour_s", "s", Lower),
    layer("congest.reuse_ratio", "ratio", Higher),
    layer("congest.rsmt_hit_ratio", "ratio", Higher),
    layer("pad.features_s", "s", Lower),
    layer("pad.round_s", "s", Lower),
    layer("legal.legalize_s", "s", Lower),
    layer("legal.avg_displacement", "dbu", Lower),
    layer("dp.refine_s", "s", Lower),
    layer("dp.moves", "count", Higher),
    layer("route.full_s", "s", Lower),
    layer("route.pattern_s", "s", Lower),
    layer("route.maze_share", "ratio", Lower),
    layer("route.rounds", "count", Lower),
    layer("route.overflow_gcells", "count", Lower),
    layer("route.hof_pct", "%", Lower),
    layer("route.vof_pct", "%", Lower),
    layer("db.read_design_s", "s", Lower),
    layer("db.write_placement_s", "s", Lower),
    layer("db.bookshelf_ingest_kcells_per_s", "kcells/s", Higher),
    layer("core.checkpoint_save_s", "s", Lower),
    layer("core.checkpoint_bytes", "B", Lower),
    layer("trace.records", "count", Lower),
    layer("trace.overhead_share", "ratio", Lower),
    layer("serve.job_run_s_mean", "s", Lower),
    layer("serve.contention_ratio", "ratio", Lower),
    layer("serve.parallel_efficiency", "ratio", Higher),
    layer("serve.journal_bytes", "B", Lower),
    layer("gen.generate_s", "s", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// `BENCHMARK.json` is what the driver reads; these tables are what
    /// flowbench prints. They must name the same things.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc =
            Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("json");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .expect(key)
                .iter()
                .map(|m| {
                    let s = |k: &str| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .unwrap_or_default()
                            .to_string()
                    };
                    (s("name"), s("unit") + &s("better") + &s("why"))
                })
                .collect()
        };
        let table = |ms: &[Metric]| -> Vec<(String, String)> {
            ms.iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        format!("{}{}", m.unit, m.better.as_str()),
                    )
                })
                .collect()
        };
        assert_eq!(names("end_to_end"), table(&END_TO_END));
        assert_eq!(names("per_layer"), table(&PER_LAYER));
        let workloads: Vec<_> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(names("workloads"), workloads);
        let bounds: Vec<f64> = doc
            .get("end_to_end")
            .and_then(Json::as_array)
            .expect("end_to_end")
            .iter()
            .map(|m| m.get("bound").and_then(Json::as_f64).expect("bound"))
            .collect();
        assert_eq!(
            bounds,
            END_TO_END
                .iter()
                .filter_map(|m| m.bound)
                .collect::<Vec<_>>()
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(crate::RUN_SECONDS)
        );
    }
}
