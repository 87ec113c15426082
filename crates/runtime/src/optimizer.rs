//! Optimizers applied by `ApplyUpdate` nodes.
//!
//! The optimizer *math* lives in the runtime; *where* in the step each update
//! happens is decided by the compiler's operator-reordering pass. Optimizer
//! state is allocated only for trainable elements, which is where the memory
//! difference between full and sparse backpropagation shows up (paper §1:
//! "2x for Momentum and 3x for Adam").

/// Optimizer family and hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Optimizer {
    /// Plain stochastic gradient descent.
    Sgd {
        /// Learning rate.
        lr: f32,
    },
    /// SGD with classical momentum.
    Momentum {
        /// Learning rate.
        lr: f32,
        /// Momentum coefficient.
        momentum: f32,
    },
    /// Adam.
    Adam {
        /// Learning rate.
        lr: f32,
        /// First-moment decay.
        beta1: f32,
        /// Second-moment decay.
        beta2: f32,
        /// Numerical-stability epsilon.
        eps: f32,
    },
    /// Lion (sign momentum), the memory-efficient optimizer used for the
    /// paper's Llama fine-tuning experiments (§5).
    Lion {
        /// Learning rate.
        lr: f32,
        /// Interpolation coefficient for the update direction.
        beta1: f32,
        /// Momentum decay coefficient.
        beta2: f32,
    },
}

impl Default for Optimizer {
    fn default() -> Self {
        Optimizer::Sgd { lr: 0.01 }
    }
}

impl Optimizer {
    /// Convenience constructor for SGD.
    pub fn sgd(lr: f32) -> Self {
        Optimizer::Sgd { lr }
    }

    /// Convenience constructor for Adam with standard betas.
    pub fn adam(lr: f32) -> Self {
        Optimizer::Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }

    /// Convenience constructor for Lion with standard betas.
    pub fn lion(lr: f32) -> Self {
        Optimizer::Lion {
            lr,
            beta1: 0.9,
            beta2: 0.99,
        }
    }

    /// Number of per-element state tensors this optimizer keeps.
    pub fn state_slots(&self) -> usize {
        match self {
            Optimizer::Sgd { .. } => 0,
            Optimizer::Momentum { .. } | Optimizer::Lion { .. } => 1,
            Optimizer::Adam { .. } => 2,
        }
    }

    /// Applies one update step in place.
    ///
    /// `param` and `grad` must have the same length; `state` must contain
    /// [`Optimizer::state_slots`] vectors of the same length; `step` is the
    /// 1-based global step count (used for Adam bias correction).
    pub(crate) fn apply(
        &self,
        param: &mut [f32],
        grad: &[f32],
        state: &mut [Vec<f32>],
        step: usize,
    ) {
        assert_eq!(param.len(), grad.len(), "param/grad length mismatch");
        match *self {
            Optimizer::Sgd { lr } => {
                for (p, &g) in param.iter_mut().zip(grad) {
                    *p -= lr * g;
                }
            }
            Optimizer::Momentum { lr, momentum } => {
                let v = &mut state[0];
                for i in 0..param.len() {
                    v[i] = momentum * v[i] + grad[i];
                    param[i] -= lr * v[i];
                }
            }
            Optimizer::Adam {
                lr,
                beta1,
                beta2,
                eps,
            } => {
                let t = step.max(1) as f32;
                let bc1 = 1.0 - beta1.powf(t);
                let bc2 = 1.0 - beta2.powf(t);
                let (m, v) = state.split_at_mut(1);
                let m = &mut m[0];
                let v = &mut v[0];
                for i in 0..param.len() {
                    m[i] = beta1 * m[i] + (1.0 - beta1) * grad[i];
                    v[i] = beta2 * v[i] + (1.0 - beta2) * grad[i] * grad[i];
                    let mhat = m[i] / bc1;
                    let vhat = v[i] / bc2;
                    param[i] -= lr * mhat / (vhat.sqrt() + eps);
                }
            }
            Optimizer::Lion { lr, beta1, beta2 } => {
                let m = &mut state[0];
                for i in 0..param.len() {
                    let update = beta1 * m[i] + (1.0 - beta1) * grad[i];
                    param[i] -= lr * update.signum();
                    m[i] = beta2 * m[i] + (1.0 - beta2) * grad[i];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn converges_on_quadratic(opt: Optimizer, steps: usize, tol: f32) {
        // Minimise f(x) = 0.5 * x^2, grad = x, from x = 5.
        let mut param = vec![5.0f32];
        let mut state: Vec<Vec<f32>> = (0..opt.state_slots()).map(|_| vec![0.0]).collect();
        for step in 1..=steps {
            let grad = vec![param[0]];
            opt.apply(&mut param, &grad, &mut state, step);
        }
        assert!(param[0].abs() < tol, "{opt:?} ended at {}", param[0]);
    }

    #[test]
    fn sgd_converges() {
        converges_on_quadratic(Optimizer::sgd(0.1), 200, 1e-3);
    }

    #[test]
    fn momentum_converges() {
        converges_on_quadratic(
            Optimizer::Momentum {
                lr: 0.05,
                momentum: 0.9,
            },
            300,
            1e-2,
        );
    }

    #[test]
    fn adam_converges() {
        converges_on_quadratic(Optimizer::adam(0.05), 500, 1e-2);
    }

    #[test]
    fn lion_moves_toward_minimum() {
        // Lion's sign-of-momentum update does not settle exactly on the
        // optimum of this toy problem: it walks there in fixed-size steps and
        // then oscillates. Check sustained progress rather than convergence.
        converges_on_quadratic(Optimizer::lion(0.01), 600, 2.0);
        converges_on_quadratic(Optimizer::lion(0.05), 300, 2.0);
    }

    #[test]
    fn state_slot_counts() {
        assert_eq!(Optimizer::sgd(0.1).state_slots(), 0);
        assert_eq!(
            Optimizer::Momentum {
                lr: 0.1,
                momentum: 0.9
            }
            .state_slots(),
            1
        );
        assert_eq!(Optimizer::adam(0.1).state_slots(), 2);
        assert_eq!(Optimizer::lion(0.1).state_slots(), 1);
    }

    #[test]
    fn sgd_single_step_formula() {
        let mut p = vec![1.0, 2.0];
        Optimizer::sgd(0.5).apply(&mut p, &[1.0, -2.0], &mut [], 1);
        assert_eq!(p, vec![0.5, 3.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let mut p = vec![1.0];
        Optimizer::sgd(0.1).apply(&mut p, &[1.0, 2.0], &mut [], 1);
    }
}
