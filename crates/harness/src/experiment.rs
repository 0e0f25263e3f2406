//! The [`Experiment`] registry entry and its structured result type.

use std::collections::BTreeMap;

use ehp_lint::ParamSpec;
use ehp_sim_core::json::Json;

use crate::report::Report;
use crate::scenario::Scenario;

/// One paper experiment: a registry id, its declared scenario
/// parameters, and a pure function from a [`Scenario`] to an
/// [`ExperimentResult`].
///
/// `run` must be deterministic given the scenario (including its seed)
/// — the batch runner relies on this for reproducible summaries — and
/// panic-free for the default scenario (the runner isolates panics, but
/// a panicking default is a bug).
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Stable registry id (e.g. `"figure20"`).
    pub id: &'static str,
    /// One-line human description.
    pub title: &'static str,
    /// The scenario parameters this experiment reads. `ehp lint` (S1)
    /// rejects scenario specs naming anything else.
    pub params: &'static [ParamSpec],
    /// The experiment body.
    pub run: fn(&Scenario) -> ExperimentResult,
}

/// What an experiment produces: a human-readable report, named numeric
/// metrics (what `ehp check` and regression gates consume), and an
/// optional JSON payload (the figure's data series).
#[derive(Debug)]
pub struct ExperimentResult {
    /// The rendered text report.
    pub report: Report,
    /// Named scalar metrics, sorted for deterministic output.
    pub metrics: BTreeMap<String, f64>,
    /// Figure data rows, written to `target/figures/<name>.json`.
    pub payload: Option<Json>,
}

impl ExperimentResult {
    /// Starts a result around a report.
    #[must_use]
    pub fn new(report: Report) -> ExperimentResult {
        ExperimentResult {
            report,
            metrics: BTreeMap::new(),
            payload: None,
        }
    }

    /// Records a named metric (non-finite values are stored as-is and
    /// serialised as `null`; `ehp check` treats them as failures).
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Attaches the figure payload.
    pub fn set_payload(&mut self, payload: Json) {
        self.payload = Some(payload);
    }
}
