//! Error types for protocol configuration and node construction.

use core::fmt;

/// Error returned when an [`SfConfig`](crate::SfConfig) would violate the
/// constraints of the paper's Section 5 (`s ≥ 6` even, `0 ≤ d_L ≤ s − 6`
/// even).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ConfigError {
    /// The view size `s` is below the minimum of 6 required by the
    /// reachability argument (Lemma A.3).
    ViewSizeTooSmall {
        /// The offending view size.
        s: usize,
    },
    /// The view size `s` must be even so outdegrees can stay even
    /// (Observation 5.1).
    ViewSizeOdd {
        /// The offending view size.
        s: usize,
    },
    /// The lower degree threshold `d_L` must be even.
    ThresholdOdd {
        /// The offending threshold.
        d_l: usize,
    },
    /// The lower degree threshold exceeds `s − 6`, leaving the outdegree too
    /// little slack for the protocol to be effective (Section 5).
    ThresholdTooLarge {
        /// The offending threshold.
        d_l: usize,
        /// The configured view size.
        s: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Self::ViewSizeTooSmall { s } => {
                write!(f, "view size s={s} is below the minimum of 6")
            }
            Self::ViewSizeOdd { s } => write!(f, "view size s={s} must be even"),
            Self::ThresholdOdd { d_l } => {
                write!(f, "degree threshold d_L={d_l} must be even")
            }
            Self::ThresholdTooLarge { d_l, s } => {
                write!(f, "degree threshold d_L={d_l} exceeds s-6={}", s.saturating_sub(6))
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Error returned when constructing a node with an invalid bootstrap view.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum JoinError {
    /// A joining node must know at least `d_L` live ids (Section 5).
    TooFewIds {
        /// Number of ids supplied.
        supplied: usize,
        /// The configured lower threshold `d_L`.
        d_l: usize,
    },
    /// The bootstrap view holds more ids than the view size `s`.
    TooManyIds {
        /// Number of ids supplied.
        supplied: usize,
        /// The configured view size `s`.
        s: usize,
    },
    /// Outdegrees must be even at all times (Observation 5.1), so the
    /// bootstrap view must contain an even number of ids.
    OddIdCount {
        /// Number of ids supplied.
        supplied: usize,
    },
    /// The engine's id allocator ran out of representable ids. The slot
    /// arenas store ids as `u32` words (with `u32::MAX` reserved as the
    /// empty sentinel), so joiners beyond that space are rejected rather
    /// than silently aliased. A bootstrap id beyond that space is rejected
    /// the same way, with `next` naming the offending id.
    IdSpaceExhausted {
        /// The id the allocator would have handed out.
        next: u64,
        /// The first unrepresentable id (exclusive upper bound).
        limit: u64,
    },
}

impl fmt::Display for JoinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Self::TooFewIds { supplied, d_l } => {
                write!(f, "bootstrap view holds {supplied} ids, below d_L={d_l}")
            }
            Self::TooManyIds { supplied, s } => {
                write!(f, "bootstrap view holds {supplied} ids, above s={s}")
            }
            Self::OddIdCount { supplied } => {
                write!(f, "bootstrap view holds an odd number of ids ({supplied})")
            }
            Self::IdSpaceExhausted { next, limit } => {
                write!(f, "node id {next} exceeds the arena id space (ids must stay below {limit})")
            }
        }
    }
}

impl std::error::Error for JoinError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_error_messages_are_lowercase_and_nonempty() {
        let errors = [
            ConfigError::ViewSizeTooSmall { s: 4 },
            ConfigError::ViewSizeOdd { s: 7 },
            ConfigError::ThresholdOdd { d_l: 3 },
            ConfigError::ThresholdTooLarge { d_l: 10, s: 12 },
        ];
        for err in errors {
            let msg = err.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase());
            assert!(!msg.ends_with('.'));
        }
    }

    #[test]
    fn join_error_messages_mention_counts() {
        assert!(JoinError::TooFewIds { supplied: 1, d_l: 4 }.to_string().contains("d_L=4"));
        assert!(JoinError::TooManyIds { supplied: 9, s: 8 }.to_string().contains("s=8"));
        assert!(JoinError::OddIdCount { supplied: 3 }.to_string().contains('3'));
        let exhausted = JoinError::IdSpaceExhausted { next: 1 << 40, limit: u64::from(u32::MAX) };
        assert!(exhausted.to_string().contains(&(1u64 << 40).to_string()));
        assert!(exhausted.to_string().contains(&u64::from(u32::MAX).to_string()));
    }

    #[test]
    fn join_error_messages_are_lowercase_and_nonempty() {
        let errors = [
            JoinError::TooFewIds { supplied: 1, d_l: 4 },
            JoinError::TooManyIds { supplied: 9, s: 8 },
            JoinError::OddIdCount { supplied: 3 },
            JoinError::IdSpaceExhausted { next: 5, limit: 4 },
        ];
        for err in errors {
            let msg = err.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase());
            assert!(!msg.ends_with('.'));
        }
    }

    #[test]
    fn errors_are_std_errors() {
        fn assert_error<E: std::error::Error + Send + Sync + 'static>() {}
        assert_error::<ConfigError>();
        assert_error::<JoinError>();
    }
}
