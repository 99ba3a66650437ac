//! Parameters of the ReTraTree and of QuT-Clustering queries.

use hermes_s2t::S2TParams;
use hermes_trajectory::Duration;

/// Construction-time parameters of a [`crate::tree::ReTraTree`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReTraTreeParams {
    /// Length of a level-1 temporal chunk.
    pub chunk_duration: Duration,
    /// Number of sub-chunks each chunk is divided into (level 2). The paper
    /// uses a finer temporal partitioning inside each chunk; a fixed fan-out
    /// keeps sub-chunk boundaries deterministic, which QuT exploits to decide
    /// what can be reused without touching the data.
    pub subchunks_per_chunk: usize,
    /// Page threshold of an outlier partition above which the maintenance
    /// loop re-runs S2T-Clustering on that sub-chunk ("when the size of a
    /// partition exceeds a pre-defined threshold, S2T-Clustering takes
    /// action").
    pub reorg_page_threshold: usize,
    /// S2T parameters used for the per-sub-chunk clustering runs.
    pub s2t: S2TParams,
}

impl Default for ReTraTreeParams {
    fn default() -> Self {
        ReTraTreeParams {
            chunk_duration: Duration::from_hours(6),
            subchunks_per_chunk: 4,
            reorg_page_threshold: 8,
            s2t: S2TParams::default(),
        }
    }
}

/// Builder for [`ReTraTreeParams`], with validation folded into
/// [`ReTraTreeParamsBuilder::build`].
///
/// ```
/// use hermes_retratree::ReTraTreeParams;
/// use hermes_trajectory::Duration;
/// let params = ReTraTreeParams::builder()
///     .chunk_duration(Duration::from_hours(2))
///     .subchunks_per_chunk(4)
///     .build()
///     .unwrap();
/// assert_eq!(params.subchunk_duration(), Duration::from_mins(30));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ReTraTreeParamsBuilder {
    params: ReTraTreeParams,
}

impl ReTraTreeParamsBuilder {
    /// Sets the level-1 chunk duration.
    pub fn chunk_duration(mut self, d: Duration) -> Self {
        self.params.chunk_duration = d;
        self
    }

    /// Sets the level-2 fan-out (sub-chunks per chunk).
    pub fn subchunks_per_chunk(mut self, n: usize) -> Self {
        self.params.subchunks_per_chunk = n;
        self
    }

    /// Sets the outlier-partition page threshold triggering re-clustering.
    pub fn reorg_page_threshold(mut self, pages: usize) -> Self {
        self.params.reorg_page_threshold = pages;
        self
    }

    /// Sets the S2T parameters for the per-sub-chunk clustering runs.
    pub fn s2t(mut self, s2t: S2TParams) -> Self {
        self.params.s2t = s2t;
        self
    }

    /// Validates and returns the parameters, or the first violation.
    pub fn build(self) -> Result<ReTraTreeParams, String> {
        self.params.validate()?;
        Ok(self.params)
    }
}

impl ReTraTreeParams {
    /// Starts a builder over the default parameters.
    pub fn builder() -> ReTraTreeParamsBuilder {
        ReTraTreeParamsBuilder::default()
    }

    /// Validates the parameters, returning the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.chunk_duration.millis() <= 0 {
            return Err("chunk_duration must be positive".into());
        }
        if self.subchunks_per_chunk == 0 {
            return Err("subchunks_per_chunk must be at least 1".into());
        }
        if self.chunk_duration.millis() % self.subchunks_per_chunk as i64 != 0 {
            return Err(format!(
                "chunk_duration ({} ms) must be divisible by subchunks_per_chunk ({})",
                self.chunk_duration.millis(),
                self.subchunks_per_chunk
            ));
        }
        if self.reorg_page_threshold == 0 {
            return Err("reorg_page_threshold must be at least 1".into());
        }
        self.s2t.validate()
    }

    /// Length of one level-2 sub-chunk.
    pub fn subchunk_duration(&self) -> Duration {
        Duration::from_millis(self.chunk_duration.millis() / self.subchunks_per_chunk as i64)
    }
}

/// Parameters of one QuT-Clustering query — the `τ, δ, t, d, γ` of
/// `SELECT QUT(D, Wi, We, τ, δ, t, d, γ)`.
#[derive(Debug, Clone, PartialEq)]
pub struct QutParams {
    /// S2T parameters (`τ`, `δ`, `t` plus the voting/clustering knobs) used
    /// when a border sub-chunk has to be re-clustered on the fly.
    pub s2t: S2TParams,
    /// Merge distance `d`: cluster entries from adjacent sub-chunks whose
    /// representatives are within this synchronized-shape distance are
    /// reported as one cluster.
    pub merge_distance: f64,
    /// Merge gap `γ`: the maximum temporal gap between two cluster entries
    /// that may still be merged.
    pub merge_gap: Duration,
}

impl Default for QutParams {
    fn default() -> Self {
        QutParams {
            s2t: S2TParams::default(),
            merge_distance: 200.0,
            merge_gap: Duration::from_mins(30),
        }
    }
}

/// Builder for [`QutParams`], with validation folded into
/// [`QutParamsBuilder::build`].
#[derive(Debug, Clone, Default)]
pub struct QutParamsBuilder {
    params: QutParams,
}

impl QutParamsBuilder {
    /// Sets the S2T parameters used for on-the-fly border re-clustering.
    pub fn s2t(mut self, s2t: S2TParams) -> Self {
        self.params.s2t = s2t;
        self
    }

    /// Sets the cross-sub-chunk merge distance `d`.
    pub fn merge_distance(mut self, d: f64) -> Self {
        self.params.merge_distance = d;
        self
    }

    /// Sets the maximum temporal merge gap `γ`.
    pub fn merge_gap(mut self, gap: Duration) -> Self {
        self.params.merge_gap = gap;
        self
    }

    /// Validates and returns the parameters, or the first violation.
    pub fn build(self) -> Result<QutParams, String> {
        self.params.validate()?;
        Ok(self.params)
    }
}

impl QutParams {
    /// Starts a builder over the default parameters.
    pub fn builder() -> QutParamsBuilder {
        QutParamsBuilder::default()
    }

    /// Validates the parameters.
    // The negated comparison deliberately rejects NaN too.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn validate(&self) -> Result<(), String> {
        if !(self.merge_distance > 0.0) {
            return Err(format!(
                "merge_distance must be positive, got {}",
                self.merge_distance
            ));
        }
        if self.merge_gap.millis() < 0 {
            return Err("merge_gap must be non-negative".into());
        }
        self.s2t.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        assert!(ReTraTreeParams::default().validate().is_ok());
        assert!(QutParams::default().validate().is_ok());
    }

    #[test]
    fn subchunk_duration_divides_chunk() {
        let p = ReTraTreeParams::default();
        assert_eq!(
            p.subchunk_duration().millis() * p.subchunks_per_chunk as i64,
            p.chunk_duration.millis()
        );
    }

    #[test]
    fn builders_set_knobs_and_validate() {
        let p = ReTraTreeParams::builder()
            .chunk_duration(Duration::from_hours(2))
            .subchunks_per_chunk(8)
            .reorg_page_threshold(3)
            .s2t(S2TParams::builder().sigma(9.0).build().unwrap())
            .build()
            .unwrap();
        assert_eq!(p.subchunks_per_chunk, 8);
        assert_eq!(p.s2t.sigma, 9.0);
        assert!(ReTraTreeParams::builder()
            .subchunks_per_chunk(0)
            .build()
            .is_err());

        let q = QutParams::builder()
            .merge_distance(2_500.0)
            .merge_gap(Duration::from_mins(45))
            .build()
            .unwrap();
        assert_eq!(q.merge_gap, Duration::from_mins(45));
        assert!(QutParams::builder().merge_distance(-1.0).build().is_err());
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let p = ReTraTreeParams {
            chunk_duration: Duration::from_millis(0),
            ..ReTraTreeParams::default()
        };
        assert!(p.validate().is_err());

        let p = ReTraTreeParams {
            subchunks_per_chunk: 0,
            ..ReTraTreeParams::default()
        };
        assert!(p.validate().is_err());

        let p = ReTraTreeParams {
            chunk_duration: Duration::from_millis(1_000_003),
            subchunks_per_chunk: 4,
            ..ReTraTreeParams::default()
        };
        assert!(p.validate().unwrap_err().contains("divisible"));

        let p = ReTraTreeParams {
            reorg_page_threshold: 0,
            ..ReTraTreeParams::default()
        };
        assert!(p.validate().is_err());

        let q = QutParams {
            merge_distance: 0.0,
            ..QutParams::default()
        };
        assert!(q.validate().is_err());

        let q = QutParams {
            merge_gap: Duration::from_millis(-1),
            ..QutParams::default()
        };
        assert!(q.validate().is_err());
    }
}
