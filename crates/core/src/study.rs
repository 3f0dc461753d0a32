//! Deterministic parallel study driver: runs many evaluation cells across
//! worker threads with bit-identical results at every thread count.
//!
//! A paper-scale study (Tables X/XI, Figs. 6–8) evaluates dozens of
//! (model, precision, benchmark, prompt-config) cells, each independent of
//! the others. [`Study`] fans the cells out with
//! [`par_map_deterministic`]: every cell gets its own [`Rig`] whose seed is
//! derived from the study seed and the cell *index* via [`item_seed`] —
//! never from thread identity or completion order — so the report vector
//! is byte-for-byte identical whether the study runs on one thread or
//! sixteen.
//!
//! The cells' rigs share one thing: a [`PhasePlanStore`] of noise-free
//! phase costs, created by [`Study::run`] and dropped when it returns. A
//! rig's engine consults it only when its own plan cache misses, so the
//! paper's characterization sweeps lower and roofline each phase shape
//! once per call instead of once per cell. Seeds, noise draws, fits and
//! [`EngineCounters`] stay per rig, so the reports and summed counters
//! equal those of store-less rigs.

use std::sync::Arc;

use edgereasoning_engine::plan_cache::{EngineCounters, PhasePlanStore};
use edgereasoning_kernels::arch::ModelId;
use edgereasoning_kernels::dtype::Precision;
use edgereasoning_models::evaluate::EvalOptions;
use edgereasoning_soc::runtime::{item_seed, par_map_deterministic};
use edgereasoning_workloads::prompt::PromptConfig;
use edgereasoning_workloads::suite::Benchmark;
use serde::{Deserialize, Serialize};

use crate::rig::{CellReport, Rig, RigConfig};

/// One evaluation cell of a study.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StudyCell {
    /// Model to evaluate.
    pub model: ModelId,
    /// Weight precision.
    pub precision: Precision,
    /// Benchmark suite.
    pub bench: Benchmark,
    /// Prompting configuration.
    pub config: PromptConfig,
}

impl StudyCell {
    /// Creates a cell.
    #[must_use]
    pub fn new(
        model: ModelId,
        precision: Precision,
        bench: Benchmark,
        config: PromptConfig,
    ) -> Self {
        Self {
            model,
            precision,
            bench,
            config,
        }
    }
}

/// Result of a study: per-cell reports (in input order) plus engine
/// counters summed over every per-cell rig.
#[derive(Debug, Clone)]
pub struct StudyReport {
    /// One report per input cell, in input order.
    pub reports: Vec<CellReport>,
    /// Plan-cache and phase counters aggregated across all cell rigs.
    pub counters: EngineCounters,
}

/// Deterministic parallel study runner.
#[derive(Debug, Clone)]
pub struct Study {
    config: RigConfig,
    threads: usize,
}

impl Study {
    /// Creates a study runner over the given rig configuration, defaulting
    /// to one worker thread (sequential).
    #[must_use]
    pub fn new(config: RigConfig) -> Self {
        Self { config, threads: 1 }
    }

    /// Sets the worker-thread count (0 = all cores), builder-style.
    ///
    /// Results are bit-identical at every value: each cell's rig seed is
    /// [`item_seed`]`(study seed, cell index)`.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Returns the underlying rig configuration.
    #[must_use]
    pub fn config(&self) -> &RigConfig {
        &self.config
    }

    /// Evaluates every cell, returning reports in input order plus
    /// aggregated engine counters. The cells' rigs share one
    /// [`PhasePlanStore`], which lives as long as this call.
    pub fn run(&self, cells: &[StudyCell], opts: EvalOptions) -> StudyReport {
        let store = Arc::new(PhasePlanStore::new());
        let outcomes = par_map_deterministic(cells, self.threads, |idx, cell| {
            let seed = item_seed(self.config.seed, idx as u64);
            let mut rig = Rig::new(self.config.clone().with_seed(seed));
            rig.engine_mut().lend_plan_store(Arc::clone(&store));
            let report = rig.cell_report(cell.model, cell.precision, cell.bench, cell.config, opts);
            (report, rig.engine_mut().counters())
        });
        let mut counters = EngineCounters::default();
        let mut reports = Vec::with_capacity(outcomes.len());
        for (report, cell_counters) in outcomes {
            counters.absorb(&cell_counters);
            reports.push(report);
        }
        StudyReport { reports, counters }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cells() -> Vec<StudyCell> {
        vec![
            StudyCell::new(
                ModelId::Dsr1Qwen1_5b,
                Precision::Fp16,
                Benchmark::MmluRedux,
                PromptConfig::Base,
            ),
            StudyCell::new(
                ModelId::Dsr1Qwen1_5b,
                Precision::W4A16,
                Benchmark::MmluRedux,
                PromptConfig::Hard(128),
            ),
            StudyCell::new(
                ModelId::Dsr1Llama8b,
                Precision::Fp16,
                Benchmark::MmluRedux,
                PromptConfig::Soft(256),
            ),
            // The first cell's model and precision again, and L1-Max on
            // the 1.5B backbone: these cells read store entries that other
            // cells wrote, whichever worker ran them.
            StudyCell::new(
                ModelId::Dsr1Qwen1_5b,
                Precision::Fp16,
                Benchmark::MmluRedux,
                PromptConfig::Soft(128),
            ),
            StudyCell::new(
                ModelId::L1Max,
                Precision::Fp16,
                Benchmark::MmluRedux,
                PromptConfig::Hard(128),
            ),
        ]
    }

    #[test]
    fn study_is_thread_count_invariant() {
        let opts = EvalOptions::default().with_subset(80);
        let study = Study::new(RigConfig::default());
        let seq = study.run(&cells(), opts);
        for threads in [0usize, 2, 3] {
            let par = study.clone().with_threads(threads).run(&cells(), opts);
            assert_eq!(
                seq.reports, par.reports,
                "reports differ at {threads} threads"
            );
            assert_eq!(
                seq.counters, par.counters,
                "counters differ at {threads} threads"
            );
        }
    }

    #[test]
    fn study_counters_aggregate_cell_work() {
        let opts = EvalOptions::default().with_subset(40);
        let report = Study::new(RigConfig::default()).run(&cells()[..2], opts);
        assert_eq!(report.reports.len(), 2);
        // Characterization sweeps execute thousands of phases per cell and
        // the plan cache absorbs nearly all of them.
        assert!(report.counters.cache_hits > 0, "{}", report.counters);
        assert!(report.counters.hit_rate() > 0.5, "{}", report.counters);
        assert!(report.counters.prefill_phases > 0);
        assert!(report.counters.decode_ctx_phases > 0);
    }
}
