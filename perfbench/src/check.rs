//! The correctness gate: every flush of every timed or traced pass is
//! compared bit for bit against the sequential reference answers.

use surge_core::RegionAnswer;

/// The bits of one flush answer the gate compares: score, point x, point y.
/// `None` when the flush reported no region.
pub type Fingerprint = Option<[u64; 3]>;

/// The fingerprint of a flush's (first) answer.
pub fn fingerprint(answer: Option<&RegionAnswer>) -> Fingerprint {
    answer.map(|a| [a.score.to_bits(), a.point.x.to_bits(), a.point.y.to_bits()])
}

/// Mismatches described on standard error per run; the rest are counted.
const REPORTED: u64 = 5;

/// Running tally of compared and failed flushes across one invocation.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Gate {
    /// Reference flushes compared.
    pub attempted: u64,
    /// Reference flushes whose answer was missing or differed, plus any
    /// flushes the pass produced beyond the reference.
    pub failed: u64,
}

impl Gate {
    /// Compares one pass's flushes against the reference and returns how
    /// many failed.
    pub fn compare(&mut self, reference: &[Fingerprint], got: &[Fingerprint]) -> u64 {
        let mut mismatched = 0u64;
        for (i, want) in reference.iter().enumerate() {
            let have = got.get(i);
            if have != Some(want) {
                if self.failed + mismatched < REPORTED {
                    eprintln!("perfbench: flush {i} differs: reference {want:?}, got {have:?}");
                }
                mismatched += 1;
            }
        }
        let extra = got.len().saturating_sub(reference.len()) as u64;
        self.attempted += reference.len() as u64;
        self.failed += mismatched + extra;
        mismatched + extra
    }

    /// Counts a pass that panicked: every reference flush failed.
    pub fn panicked(&mut self, reference: &[Fingerprint]) {
        self.attempted += reference.len() as u64;
        self.failed += reference.len() as u64;
    }

    /// `failed / attempted` (0 when nothing was compared).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use surge_core::{Point, RegionSize};

    fn answers(n: usize) -> Vec<Fingerprint> {
        (0..n)
            .map(|i| {
                let a = RegionAnswer::from_point(
                    Point::new(i as f64, 2.0 * i as f64),
                    RegionSize::new(1.0, 1.0),
                    0.5 + i as f64,
                );
                fingerprint(Some(&a))
            })
            .collect()
    }

    #[test]
    fn identical_passes_fail_nothing() {
        let reference = answers(8);
        let mut gate = Gate::default();
        assert_eq!(gate.compare(&reference, &reference.clone()), 0);
        assert_eq!(
            gate,
            Gate {
                attempted: 8,
                failed: 0
            }
        );
    }

    #[test]
    fn a_corrupted_reference_flush_is_counted() {
        let got = answers(8);
        let mut reference = got.clone();
        // Flip the lowest score bit of one flush: a one-ulp difference.
        if let Some(bits) = reference[3].as_mut() {
            bits[0] ^= 1;
        }
        let mut gate = Gate::default();
        assert_eq!(gate.compare(&reference, &got), 1);
        assert_eq!(gate.failed_frac(), 1.0 / 8.0);
    }

    #[test]
    fn missing_extra_and_empty_flushes_are_counted() {
        let reference = answers(6);
        let mut gate = Gate::default();
        // Two flushes missing at the end.
        assert_eq!(gate.compare(&reference, &reference[..4]), 2);
        // One flush too many.
        let mut longer = reference.clone();
        longer.push(None);
        assert_eq!(gate.compare(&reference, &longer), 1);
        // A region where the reference had none.
        let mut none_ref = reference.clone();
        none_ref[0] = None;
        assert_eq!(gate.compare(&none_ref, &reference), 1);
        assert_eq!(
            gate,
            Gate {
                attempted: 18,
                failed: 4
            }
        );
    }

    #[test]
    fn a_panicked_pass_fails_every_flush() {
        let reference = answers(5);
        let mut gate = Gate::default();
        gate.panicked(&reference);
        assert_eq!(gate.failed_frac(), 1.0);
    }
}
