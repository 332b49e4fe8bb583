//! Rich estimation results and typed estimation errors.
//!
//! The original API returned a bare `f64` selectivity and panicked (or
//! silently produced garbage) on malformed inputs. Serving an estimator
//! under real traffic needs more: callers want the estimated cardinality
//! and per-query diagnostics without re-deriving them, and malformed
//! queries must surface as values, not panics, so one bad request cannot
//! take down a worker. [`Estimate`] and [`EstimateError`] are that
//! contract, shared by Naru's `Engine`/`Session` API and every baseline.

use std::fmt;
use std::time::Duration;

/// Which path of the tiered estimation pipeline produced an [`Estimate`].
///
/// The tiered pipeline (see `TieredSession` in `naru-core`) tries cheap
/// answers before running the model; serving adds a result cache on top.
/// Estimators that sit outside the pipeline (baselines, a plain `Session`)
/// report [`Provenance::Tier2Model`], the full-estimator path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Provenance {
    /// Answered exactly from stored per-column statistics, no model run.
    Tier0Exact,
    /// Answered approximately from histograms/sketches under an
    /// independence assumption, within a configured q-error budget.
    Tier1Sketch,
    /// Answered by the full estimator (progressive sampling over the model).
    Tier2Model,
    /// Returned verbatim from a server-side result cache; the payload is the
    /// estimate that populated the entry, only this tag differs.
    CacheHit,
    /// Answered through a *degraded* path chosen under deadline or overload
    /// pressure: a reduced-sample model walk or a forced sketch answer that
    /// the normal routing would not have used. The estimate is best-effort —
    /// callers that need full quality should retry with more budget.
    Degraded,
}

impl Provenance {
    /// Stable lowercase label, convenient for metrics and JSON output.
    pub fn label(&self) -> &'static str {
        match self {
            Provenance::Tier0Exact => "tier0_exact",
            Provenance::Tier1Sketch => "tier1_sketch",
            Provenance::Tier2Model => "tier2_model",
            Provenance::CacheHit => "cache_hit",
            Provenance::Degraded => "degraded",
        }
    }

    /// Parses the label written by [`Provenance::label`] (the form clients
    /// receive on the wire).
    pub fn from_label(label: &str) -> Option<Provenance> {
        match label {
            "tier0_exact" => Some(Provenance::Tier0Exact),
            "tier1_sketch" => Some(Provenance::Tier1Sketch),
            "tier2_model" => Some(Provenance::Tier2Model),
            "cache_hit" => Some(Provenance::CacheHit),
            "degraded" => Some(Provenance::Degraded),
            _ => None,
        }
    }
}

/// The outcome of one successful selectivity estimation.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimate {
    /// Estimated selectivity in `[0, 1]`.
    pub selectivity: f64,
    /// Estimated number of matching rows (`selectivity x table rows`).
    pub estimated_rows: f64,
    /// Number of progressive-sampling paths still alive at the end of the
    /// walk. `None` for closed-form estimators (histograms, independence,
    /// KDE, ...) that do not sample.
    pub live_paths: Option<usize>,
    /// Wall-clock time spent producing this estimate.
    pub wall_time: Duration,
    /// Which pipeline path produced the answer. Constructors default to
    /// [`Provenance::Tier2Model`]; tiered/cached paths override it via
    /// [`Estimate::with_provenance`].
    pub provenance: Provenance,
}

impl Estimate {
    /// An estimate from a closed-form (non-sampling) estimator.
    pub fn closed_form(selectivity: f64, num_rows: u64, wall_time: Duration) -> Self {
        let selectivity = selectivity.clamp(0.0, 1.0);
        Self {
            selectivity,
            estimated_rows: selectivity * num_rows as f64,
            live_paths: None,
            wall_time,
            provenance: Provenance::Tier2Model,
        }
    }

    /// An estimate from a sampling estimator, with its live-path count.
    pub fn sampled(selectivity: f64, num_rows: u64, live_paths: usize, wall_time: Duration) -> Self {
        Self { live_paths: Some(live_paths), ..Self::closed_form(selectivity, num_rows, wall_time) }
    }

    /// The same estimate tagged with a different [`Provenance`].
    pub fn with_provenance(mut self, provenance: Provenance) -> Self {
        self.provenance = provenance;
        self
    }

    /// The estimated cardinality rounded to whole rows.
    pub fn cardinality(&self) -> u64 {
        self.estimated_rows.round().max(0.0) as u64
    }
}

/// Why an estimation request could not be answered.
///
/// These are *request or estimator* defects, distinct from legitimately
/// empty query regions (which estimate to selectivity 0, not an error).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EstimateError {
    /// A predicate addresses a column the estimator does not model.
    ColumnOutOfRange {
        /// The offending predicate's column index.
        column: usize,
        /// Number of columns the estimator models.
        num_columns: usize,
    },
    /// The estimator models a column with an empty domain, so no tuple can
    /// be sampled or matched through it.
    EmptyDomain {
        /// The degenerate column's index.
        column: usize,
    },
    /// The estimator has no usable summary (empty sample, zero training
    /// rows, ...) and would answer with noise.
    Untrained {
        /// Human-readable explanation of what is missing.
        reason: String,
    },
}

impl EstimateError {
    /// Convenience constructor for [`EstimateError::Untrained`].
    pub fn untrained(reason: impl Into<String>) -> Self {
        Self::Untrained { reason: reason.into() }
    }
}

impl fmt::Display for EstimateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ColumnOutOfRange { column, num_columns } => {
                write!(f, "predicate column {column} out of range (estimator models {num_columns} columns)")
            }
            Self::EmptyDomain { column } => write!(f, "column {column} has an empty domain"),
            Self::Untrained { reason } => write!(f, "estimator is untrained: {reason}"),
        }
    }
}

impl std::error::Error for EstimateError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_clamps_and_scales() {
        let e = Estimate::closed_form(1.5, 200, Duration::from_millis(2));
        assert_eq!(e.selectivity, 1.0);
        assert_eq!(e.estimated_rows, 200.0);
        assert_eq!(e.cardinality(), 200);
        assert_eq!(e.live_paths, None);
    }

    #[test]
    fn sampled_records_live_paths() {
        let e = Estimate::sampled(0.25, 1000, 42, Duration::ZERO);
        assert_eq!(e.cardinality(), 250);
        assert_eq!(e.live_paths, Some(42));
    }

    #[test]
    fn provenance_defaults_to_model_and_is_overridable() {
        let e = Estimate::closed_form(0.5, 100, Duration::ZERO);
        assert_eq!(e.provenance, Provenance::Tier2Model);
        let tagged = e.clone().with_provenance(Provenance::CacheHit);
        assert_eq!(tagged.provenance, Provenance::CacheHit);
        // Everything but the tag is unchanged.
        assert_eq!(tagged.selectivity, e.selectivity);
        assert_eq!(tagged.estimated_rows, e.estimated_rows);
        assert_eq!(Provenance::Tier0Exact.label(), "tier0_exact");
        assert_eq!(Provenance::Tier1Sketch.label(), "tier1_sketch");
        assert_eq!(Provenance::Degraded.label(), "degraded");
    }

    #[test]
    fn errors_render_their_context() {
        let e = EstimateError::ColumnOutOfRange { column: 9, num_columns: 3 };
        assert!(e.to_string().contains("column 9"));
        assert!(e.to_string().contains("3 columns"));
        assert!(EstimateError::EmptyDomain { column: 1 }.to_string().contains("column 1"));
        assert!(EstimateError::untrained("no sample").to_string().contains("no sample"));
    }
}
