//! The metric catalogue and the one-line result document.

use xlmc::json::json_num;

/// Goal names of the attack suite, in the order every workload runs them
/// (the `name` of each `xlmc_soc::workloads` constructor in
/// [`crate::run::GOALS`]).
pub const GOAL_NAMES: [&str; 5] = [
    "memory_write",
    "memory_read",
    "dma_exfiltration",
    "trap_escalation",
    "instruction_skip",
];

/// The end-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("answer_s", "s"),
    ("answer_tail_s", "s"),
    ("setup_s", "s"),
    ("campaign_runs_per_s", "1/s"),
    ("peak_heap_mb", "MB"),
];

/// The per-layer metrics, printed by every traced run.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("model.build_s", "s"),
        ("soc.golden_s", "s"),
        ("prechar.cones_s", "s"),
        ("prechar.correlation_s", "s"),
        ("prechar.lifetime_s", "s"),
        ("prechar.classification_s", "s"),
        ("sampling.strategy_s", "s"),
        ("multilevel.seu_map_s", "s"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_owned(), u))
    .collect();
    out.extend(
        GOAL_NAMES
            .iter()
            .map(|g| (format!("multilevel.seu_map.{g}_s"), "s")),
    );
    out.extend(GOAL_NAMES.iter().map(|g| (format!("campaign.{g}_s"), "s")));
    out.extend(
        GOAL_NAMES
            .iter()
            .map(|g| (format!("campaign.{g}_runs"), "count")),
    );
    out.extend(
        [
            ("sampling.draw_ns", "ns"),
            ("gatesim.strike_ns", "ns"),
            ("flow.conclude_ns", "ns"),
            ("estimator.engine_s", "s"),
            ("sweep.rtl_cells_runs_per_s", "1/s"),
            ("sweep.gate_cells_runs_per_s", "1/s"),
            ("flow.rtl_runs", "count"),
            ("flow.analytic_runs", "count"),
            ("flow.conclusion_memo_hit_rate", "ratio"),
            ("flow.cycle_memo_hit_rate", "ratio"),
            ("fastforward.soc_restores", "count"),
            ("gatesim.pulses", "count"),
            ("gatesim.lane_occupancy", "lanes"),
            ("trace.overhead_s", "s"),
            ("trace.coverage", "ratio"),
            ("failed_fraction", "ratio"),
        ]
        .iter()
        .map(|&(n, u)| (n.to_owned(), u)),
    );
    out
}

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Catalogue name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Catalogue unit.
    pub unit: &'static str,
}

/// What one benchmark run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Operations started.
    pub attempted: usize,
    /// Operations that panicked, missed the target eps or failed the
    /// correctness check.
    pub failed: usize,
    /// Every metric of the run's mode, in catalogue order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The result line: `{"correct", "attempted", "failed", "metrics"}`,
    /// each metric as `{"value": v, "unit": u}` with all its digits.
    pub fn render(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
