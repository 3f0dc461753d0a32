//! Lazy arrival-process generators for the serving simulators.
//!
//! Pre-PR6 the serving loops materialized every arrival up front
//! (`poisson_arrivals` returned a `Vec` of all `cfg.queries` instants),
//! which is O(n) memory and caps trace length long before the city-scale
//! traffic the ROADMAP targets. [`ArrivalGen`] draws arrivals one at a
//! time from a dedicated RNG stream instead, so the discrete-event core
//! holds only the *backlog* in memory, never the whole trace.
//!
//! Four processes are provided ([`ArrivalProcess`]):
//!
//! * [`PoissonLegacy`](ArrivalProcess::PoissonLegacy) — a documented
//!   compatibility shim replaying the historical stream bit-for-bit:
//!   `-ln(max(u, 1e-12))/qps` with `u` drawn from `[0, 1)`. The clamp was
//!   a patch-up for the (measure-zero but representable) `u == 0` draw;
//!   the serving entry points keep using this variant so every pre-PR6
//!   seeded report stays bit-identical.
//! * [`Poisson`](ArrivalProcess::Poisson) — the principled draw:
//!   `-ln(u)/qps` with `u` uniform on `(0, 1]`
//!   ([`Rng::next_open01`]), which needs no clamp because `ln` never sees
//!   zero. Same marginal distribution, different bit stream.
//! * [`Diurnal`](ArrivalProcess::Diurnal) — a sinusoidal-rate
//!   inhomogeneous Poisson process, `rate(t) = qps·(1 + a·sin(2πt/T))`,
//!   sampled by Lewis–Shedler thinning against the envelope rate
//!   `qps·(1 + |a|)`. Models the day/night swing of city-scale traffic.
//! * [`FlashCrowd`](ArrivalProcess::FlashCrowd) — a two-state Markov-
//!   modulated Poisson process (MMPP-2): calm periods at the base rate,
//!   exponentially distributed bursts at a multiple of it. Models flash
//!   crowds; the memoryless competing-exponentials construction redraws
//!   the arrival gap after each state switch.
//!
//! All processes draw from `Rng::seed_from_u64(seed ^ 0x005e_5256)` — the
//! same stream derivation the legacy `poisson_arrivals` used — so a given
//! `(process, qps, seed)` triple is reproducible everywhere.

use edgereasoning_soc::rng::Rng;
use serde::{Deserialize, Serialize};

/// Stream-derivation constant shared with the legacy `poisson_arrivals`.
const ARRIVAL_STREAM: u64 = 0x005e_5256;

/// Which inter-arrival process drives the offered load.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum ArrivalProcess {
    /// Homogeneous Poisson replaying the pre-PR6 stream bit-for-bit
    /// (`-ln(max(u, 1e-12))/qps`, `u ∈ [0, 1)`). Compatibility shim; see
    /// the module docs.
    #[default]
    PoissonLegacy,
    /// Homogeneous Poisson with the principled `(0, 1]` uniform draw.
    Poisson,
    /// Sinusoidal-rate (diurnal) inhomogeneous Poisson process.
    Diurnal {
        /// Full day/night period, seconds.
        period_s: f64,
        /// Relative swing in `[0, 1]`: rate varies over
        /// `qps·(1 ± amplitude)`.
        amplitude: f64,
    },
    /// Two-state MMPP flash-crowd process: calm at the base rate, bursts
    /// at `burst_mult` times it.
    FlashCrowd {
        /// Burst-state rate multiplier (`> 1`).
        burst_mult: f64,
        /// Mean calm-state dwell, seconds.
        mean_calm_s: f64,
        /// Mean burst-state dwell, seconds.
        mean_burst_s: f64,
    },
}

impl ArrivalProcess {
    /// Checks the process parameters: `amplitude` in `[0, 1]`, a positive
    /// `period_s`, `burst_mult > 1` and positive dwells.
    ///
    /// # Errors
    ///
    /// The rule the first out-of-range parameter broke.
    pub fn validate(&self) -> Result<(), String> {
        let positive = |x: f64| x.is_finite() && x > 0.0;
        let broken = match *self {
            Self::PoissonLegacy | Self::Poisson => None,
            Self::Diurnal {
                period_s,
                amplitude,
            } => [
                (positive(period_s), "diurnal period must be positive"),
                (
                    (0.0..=1.0).contains(&amplitude),
                    "diurnal amplitude must be in [0, 1]",
                ),
            ]
            .into_iter()
            .find(|&(ok, _)| !ok),
            Self::FlashCrowd {
                burst_mult,
                mean_calm_s,
                mean_burst_s,
            } => [
                (
                    burst_mult.is_finite() && burst_mult > 1.0,
                    "burst multiplier must exceed 1",
                ),
                (positive(mean_calm_s), "mean calm dwell must be positive"),
                (positive(mean_burst_s), "mean burst dwell must be positive"),
            ]
            .into_iter()
            .find(|&(ok, _)| !ok),
        };
        broken.map_or(Ok(()), |(_, rule)| Err(rule.to_string()))
    }
}

impl std::fmt::Display for ArrivalProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::PoissonLegacy => write!(f, "poisson_legacy"),
            Self::Poisson => write!(f, "poisson"),
            Self::Diurnal { .. } => write!(f, "diurnal"),
            Self::FlashCrowd { .. } => write!(f, "flash_crowd"),
        }
    }
}

/// A lazy arrival-instant generator; see the module docs.
#[derive(Debug, Clone)]
pub struct ArrivalGen {
    rng: Rng,
    process: ArrivalProcess,
    qps: f64,
    /// Last emitted arrival instant (the process clock), seconds.
    t: f64,
    /// MMPP only: whether the modulating chain is in the burst state.
    bursting: bool,
}

impl ArrivalGen {
    /// Creates a generator for `process` at mean rate `qps` from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `qps` is not finite and positive, or if
    /// [`ArrivalProcess::validate`] rejects the process parameters.
    pub fn new(process: ArrivalProcess, qps: f64, seed: u64) -> Self {
        assert!(qps.is_finite() && qps > 0.0, "arrival qps must be positive");
        if let Err(e) = process.validate() {
            panic!("{e}");
        }
        Self {
            rng: Rng::seed_from_u64(seed ^ ARRIVAL_STREAM),
            process,
            qps,
            t: 0.0,
            bursting: false,
        }
    }

    /// Draws the next arrival instant (absolute seconds, strictly
    /// increasing except for the legacy shim's theoretical zero-gap draw).
    pub fn next_arrival(&mut self) -> f64 {
        match self.process {
            ArrivalProcess::PoissonLegacy => {
                // Bit-exact legacy stream: [0,1) draw with the 1e-12 clamp.
                self.t += -self.rng.next_f64().max(1e-12).ln() / self.qps;
            }
            ArrivalProcess::Poisson => {
                self.t += -self.rng.next_open01().ln() / self.qps;
            }
            ArrivalProcess::Diurnal {
                period_s,
                amplitude,
            } => {
                // Lewis–Shedler thinning against the constant envelope
                // qps·(1+a): candidate gaps at the envelope rate, accepted
                // with probability rate(t)/envelope.
                let envelope = self.qps * (1.0 + amplitude);
                loop {
                    self.t += -self.rng.next_open01().ln() / envelope;
                    let phase = 2.0 * std::f64::consts::PI * self.t / period_s;
                    let rate = self.qps * (1.0 + amplitude * phase.sin());
                    if self.rng.chance(rate / envelope) {
                        break;
                    }
                }
            }
            ArrivalProcess::FlashCrowd {
                burst_mult,
                mean_calm_s,
                mean_burst_s,
            } => {
                // Competing exponentials: the next arrival (at the current
                // state's rate) races the next state switch; both are
                // memoryless, so gaps are redrawn after a switch.
                loop {
                    let (rate, dwell) = if self.bursting {
                        (self.qps * burst_mult, mean_burst_s)
                    } else {
                        (self.qps, mean_calm_s)
                    };
                    let gap = -self.rng.next_open01().ln() / rate;
                    let switch = -self.rng.next_open01().ln() * dwell;
                    if gap <= switch {
                        self.t += gap;
                        break;
                    }
                    self.t += switch;
                    self.bursting = !self.bursting;
                }
            }
        }
        self.t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_shim_replays_the_historical_stream() {
        // The exact pre-PR6 expansion, verbatim.
        let qps = 3.0;
        let seed = 7u64;
        let mut rng = Rng::seed_from_u64(seed ^ 0x005e_5256);
        let mut t = 0.0f64;
        let legacy: Vec<f64> = (0..64)
            .map(|_| {
                t += -rng.next_f64().max(1e-12).ln() / qps;
                t
            })
            .collect();
        let mut gen = ArrivalGen::new(ArrivalProcess::PoissonLegacy, qps, seed);
        for want in legacy {
            assert_eq!(gen.next_arrival().to_bits(), want.to_bits());
        }
    }

    #[test]
    fn poisson_mean_rate_is_qps() {
        let mut gen = ArrivalGen::new(ArrivalProcess::Poisson, 5.0, 11);
        let mut last = 0.0;
        const N: usize = 50_000;
        for _ in 0..N {
            last = gen.next_arrival();
        }
        let rate = N as f64 / last;
        assert!((rate - 5.0).abs() / 5.0 < 0.02, "rate {rate}");
    }

    #[test]
    fn arrivals_are_monotone() {
        for process in [
            ArrivalProcess::Poisson,
            ArrivalProcess::Diurnal {
                period_s: 100.0,
                amplitude: 0.8,
            },
            ArrivalProcess::FlashCrowd {
                burst_mult: 8.0,
                mean_calm_s: 20.0,
                mean_burst_s: 2.0,
            },
        ] {
            let mut gen = ArrivalGen::new(process, 2.0, 3);
            let mut last = 0.0;
            for _ in 0..2000 {
                let t = gen.next_arrival();
                assert!(t >= last, "{process}: {t} < {last}");
                last = t;
            }
        }
    }

    #[test]
    fn diurnal_swings_the_rate_through_the_period() {
        // With amplitude 1 the rate hits ~0 in the trough and 2·qps at the
        // peak; count arrivals per quarter period and compare.
        let period = 1000.0;
        let mut gen = ArrivalGen::new(
            ArrivalProcess::Diurnal {
                period_s: period,
                amplitude: 1.0,
            },
            10.0,
            9,
        );
        let mut peak = 0usize; // first quarter: sin > 0
        let mut trough = 0usize; // third quarter: sin < 0
        loop {
            let t = gen.next_arrival();
            if t > period {
                break;
            }
            let q = (t / (period / 4.0)) as usize;
            if q == 0 {
                peak += 1;
            } else if q == 2 {
                trough += 1;
            }
        }
        assert!(
            peak > 4 * trough.max(1),
            "peak {peak} must dwarf trough {trough}"
        );
    }

    #[test]
    fn flash_crowd_mean_rate_exceeds_base() {
        // Bursting multiplies the rate; the long-run mean sits between the
        // calm and burst rates.
        let mut gen = ArrivalGen::new(
            ArrivalProcess::FlashCrowd {
                burst_mult: 10.0,
                mean_calm_s: 50.0,
                mean_burst_s: 10.0,
            },
            2.0,
            21,
        );
        let mut last = 0.0;
        const N: usize = 40_000;
        for _ in 0..N {
            last = gen.next_arrival();
        }
        let rate = N as f64 / last;
        assert!(rate > 2.2, "bursts must lift the mean rate: {rate}");
        assert!(rate < 20.0, "rate stays below the pure-burst rate: {rate}");
    }

    #[test]
    fn deterministic_per_seed() {
        let make = || {
            ArrivalGen::new(
                ArrivalProcess::FlashCrowd {
                    burst_mult: 4.0,
                    mean_calm_s: 10.0,
                    mean_burst_s: 5.0,
                },
                3.0,
                77,
            )
        };
        let mut a = make();
        let mut b = make();
        for _ in 0..500 {
            assert_eq!(a.next_arrival().to_bits(), b.next_arrival().to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "amplitude")]
    fn invalid_amplitude_is_rejected() {
        let _ = ArrivalGen::new(
            ArrivalProcess::Diurnal {
                period_s: 10.0,
                amplitude: 1.5,
            },
            1.0,
            0,
        );
    }
}
