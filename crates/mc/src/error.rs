/// Errors of the sampled tier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum McError {
    /// The configuration asked for zero trajectories.
    NoTrajectories,
    /// A worker thread panicked (a bug in the model or policy).
    WorkerPanicked,
}

impl std::fmt::Display for McError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            McError::NoTrajectories => write!(f, "monte-carlo batch with zero trajectories"),
            McError::WorkerPanicked => write!(f, "monte-carlo worker thread panicked"),
        }
    }
}

impl std::error::Error for McError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty() {
        assert!(!McError::NoTrajectories.to_string().is_empty());
        assert!(!McError::WorkerPanicked.to_string().is_empty());
    }
}
