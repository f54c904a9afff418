//! Protocol configuration: view size `s` and lower degree threshold `d_L`.

use crate::error::{ConfigError, JoinError};

/// S&F protocol parameters (Section 5 of the paper).
///
/// * `s` — the view size. Every node maintains an array of `s` slots, so the
///   outdegree is bounded by `s` at all times (Property M1, small views).
///   Must be even and at least 6.
/// * `d_L` — the lower outdegree threshold. When a node's outdegree is at
///   `d_L` it *duplicates* sent entries instead of clearing them, which is
///   how the protocol compensates for message loss. Must be even and at most
///   `s − 6`.
///
/// The gap between `d_L` and `s` gives the outdegree enough flexibility for
/// the protocol to be effective; Section 6.3 derives concrete values from a
/// target expected outdegree `d̂` and a duplication/deletion budget `δ`
/// (implemented in `sandf-markov`'s threshold module).
///
/// # Examples
///
/// ```
/// use sandf_core::SfConfig;
///
/// // The paper's running example (Section 6.3): d̂ = 30, δ = 0.01.
/// let config = SfConfig::new(40, 18)?;
/// assert_eq!(config.view_size(), 40);
/// assert_eq!(config.lower_threshold(), 18);
/// # Ok::<(), sandf_core::ConfigError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SfConfig {
    s: usize,
    d_l: usize,
}

impl SfConfig {
    /// Creates a configuration with view size `s` and lower threshold `d_l`.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if `s < 6`, `s` is odd, `d_l` is odd, or
    /// `d_l > s − 6`.
    pub fn new(s: usize, d_l: usize) -> Result<Self, ConfigError> {
        if s < 6 {
            return Err(ConfigError::ViewSizeTooSmall { s });
        }
        if !s.is_multiple_of(2) {
            return Err(ConfigError::ViewSizeOdd { s });
        }
        if !d_l.is_multiple_of(2) {
            return Err(ConfigError::ThresholdOdd { d_l });
        }
        if d_l > s - 6 {
            return Err(ConfigError::ThresholdTooLarge { d_l, s });
        }
        Ok(Self { s, d_l })
    }

    /// Creates a loss-free configuration (`d_L = 0`), disabling duplications.
    ///
    /// Section 6.1 analyzes the protocol in this regime, where the sum degree
    /// `d(u) + 2·d_in(u)` of every node is invariant (Lemma 6.2).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if `s` is below 6 or odd.
    pub fn lossless(s: usize) -> Result<Self, ConfigError> {
        Self::new(s, 0)
    }

    /// The view size `s`.
    #[must_use]
    pub const fn view_size(&self) -> usize {
        self.s
    }

    /// The lower outdegree threshold `d_L`.
    #[must_use]
    pub const fn lower_threshold(&self) -> usize {
        self.d_l
    }

    /// Checks a joiner's bootstrap size against the Section 5 joining
    /// rule: at least `d_L` ids, at most `s`, and an even count
    /// (outdegrees stay even, Observation 5.1), tested in that order.
    ///
    /// # Errors
    ///
    /// The first violated rule, as a [`JoinError`].
    pub fn check_bootstrap(&self, supplied: usize) -> Result<(), JoinError> {
        if supplied < self.d_l {
            return Err(JoinError::TooFewIds { supplied, d_l: self.d_l });
        }
        if supplied > self.s {
            return Err(JoinError::TooManyIds { supplied, s: self.s });
        }
        if !supplied.is_multiple_of(2) {
            return Err(JoinError::OddIdCount { supplied });
        }
        Ok(())
    }
}

impl Default for SfConfig {
    /// The paper's running example: `s = 40`, `d_L = 18` (Section 6.3, for a
    /// target expected outdegree of 30 and `δ = 0.01`).
    fn default() -> Self {
        Self { s: 40, d_l: 18 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_paper_parameters() {
        let c = SfConfig::new(40, 18).unwrap();
        assert_eq!(c.view_size(), 40);
        assert_eq!(c.lower_threshold(), 18);
        let c = SfConfig::new(90, 0).unwrap();
        assert_eq!(c.lower_threshold(), 0);
    }

    #[test]
    fn rejects_small_view() {
        assert_eq!(SfConfig::new(4, 0), Err(ConfigError::ViewSizeTooSmall { s: 4 }));
    }

    #[test]
    fn rejects_odd_view() {
        assert_eq!(SfConfig::new(7, 0), Err(ConfigError::ViewSizeOdd { s: 7 }));
    }

    #[test]
    fn rejects_odd_threshold() {
        assert_eq!(SfConfig::new(10, 3), Err(ConfigError::ThresholdOdd { d_l: 3 }));
    }

    #[test]
    fn rejects_threshold_above_s_minus_6() {
        assert_eq!(SfConfig::new(10, 6), Err(ConfigError::ThresholdTooLarge { d_l: 6, s: 10 }));
        // s - 6 exactly is allowed.
        assert!(SfConfig::new(10, 4).is_ok());
    }

    #[test]
    fn minimum_legal_config() {
        let c = SfConfig::new(6, 0).unwrap();
        assert_eq!(c.view_size(), 6);
    }

    #[test]
    fn default_matches_section_6_3_example() {
        let c = SfConfig::default();
        assert_eq!((c.view_size(), c.lower_threshold()), (40, 18));
    }

    #[test]
    fn lossless_zeroes_the_threshold() {
        assert_eq!(SfConfig::lossless(90).unwrap().lower_threshold(), 0);
    }
}
