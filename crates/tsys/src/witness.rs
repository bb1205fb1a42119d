//! Counterexample witnesses.

use std::fmt;

use sepe_smt::FastMap;

/// The values of one frame of a witness.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Frame {
    /// Input values, keyed by the original input variable name.
    pub inputs: FastMap<String, u64>,
    /// State-variable values, keyed by the original state variable name.
    pub states: FastMap<String, u64>,
}

impl Frame {
    /// Value of an input in this frame (0 if absent).
    pub fn input(&self, name: &str) -> u64 {
        self.inputs.get(name).copied().unwrap_or(0)
    }

    /// Value of a state variable in this frame (0 if absent).
    pub fn state(&self, name: &str) -> u64 {
        self.states.get(name).copied().unwrap_or(0)
    }
}

/// A bounded-model-checking counterexample: one [`Frame`] per time step,
/// frame 0 being the initial state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Witness {
    frames: Vec<Frame>,
}

impl Witness {
    /// Creates a witness from frames.
    pub fn new(frames: Vec<Frame>) -> Self {
        Witness { frames }
    }

    /// Number of frames (the counterexample length is `len() - 1` steps).
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the witness has no frames.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Number of transition steps in the counterexample.
    pub fn num_steps(&self) -> usize {
        self.frames.len().saturating_sub(1)
    }

    /// The frames, in order.
    pub fn frames(&self) -> &[Frame] {
        &self.frames
    }

    /// A specific frame.
    pub fn frame(&self, k: usize) -> &Frame {
        &self.frames[k]
    }

    /// The last frame (where the bad state holds).
    ///
    /// # Panics
    ///
    /// Panics on an empty witness.
    pub fn last(&self) -> &Frame {
        self.frames.last().expect("witness has at least one frame")
    }
}

impl fmt::Display for Witness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, frame) in self.frames.iter().enumerate() {
            writeln!(f, "frame {k}:")?;
            let mut inputs: Vec<_> = frame.inputs.iter().collect();
            inputs.sort();
            for (name, value) in inputs {
                writeln!(f, "  in  {name} = {value:#x}")?;
            }
            let mut states: Vec<_> = frame.states.iter().collect();
            states.sort();
            for (name, value) in states {
                writeln!(f, "  st  {name} = {value:#x}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_and_defaults() {
        let mut f0 = Frame::default();
        f0.states.insert("count".into(), 3);
        f0.inputs.insert("inc".into(), 1);
        let w = Witness::new(vec![f0.clone(), Frame::default()]);
        assert_eq!(w.len(), 2);
        assert_eq!(w.num_steps(), 1);
        assert!(!w.is_empty());
        assert_eq!(w.frame(0).state("count"), 3);
        assert_eq!(w.frame(0).input("inc"), 1);
        assert_eq!(
            w.frame(1).state("count"),
            0,
            "missing values default to zero"
        );
        assert_eq!(w.last(), &Frame::default());
    }

    #[test]
    fn display_lists_frames() {
        let mut f = Frame::default();
        f.states.insert("x".into(), 255);
        let w = Witness::new(vec![f]);
        let s = w.to_string();
        assert!(s.contains("frame 0"));
        assert!(s.contains("x = 0xff"));
    }

    #[test]
    fn empty_witness() {
        let w = Witness::default();
        assert!(w.is_empty());
        assert_eq!(w.num_steps(), 0);
    }
}
