//! Mini-batch Adam with the paper's training hygiene (§6.1.2):
//! learning-rate 0.01 decaying with iterations, ℓ2 regularization whose
//! coefficient also decays, and a hard global-norm gradient clip at 5.

use crate::params::{ParamId, ParamStore, SerializedMatrix};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use tensor::Matrix;

/// Adam hyper-parameters.
#[derive(Debug, Clone)]
pub struct AdamConfig {
    /// Initial learning rate (paper: 0.01).
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical floor.
    pub eps: f32,
    /// ℓ2 regularization coefficient (applied as decoupled-from-loss
    /// gradient shaping: `g += l2 * w`).
    pub l2: f32,
    /// Gradient global-norm clip threshold (paper: 5.0). `f32::INFINITY`
    /// disables clipping.
    pub clip_norm: f32,
    /// Hyperbolic decay applied to both `lr` and `l2`:
    /// `lr_t = lr / (1 + decay * t)`.
    pub decay: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        Self {
            lr: 0.01,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            l2: 1e-5,
            clip_norm: 5.0,
            decay: 1e-4,
        }
    }
}

/// Adam state over a fixed subset of a [`ParamStore`]'s parameters.
///
/// The paper uses *three* Adam optimizers (for `L_poi`, `L_u`, `L_co`),
/// each over its own parameter group; construct one [`Adam`] per group.
#[derive(Debug, Clone)]
pub struct Adam {
    cfg: AdamConfig,
    ids: Vec<ParamId>,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
    t: u64,
}

impl Adam {
    /// Creates an optimizer over `ids`, with moment buffers shaped from the
    /// store's current parameter shapes.
    pub fn new(store: &ParamStore, ids: Vec<ParamId>, cfg: AdamConfig) -> Self {
        let m = ids
            .iter()
            .map(|&id| {
                let (r, c) = store.value(id).shape();
                Matrix::zeros(r, c)
            })
            .collect::<Vec<_>>();
        let v = m.clone();
        Self {
            cfg,
            ids,
            m,
            v,
            t: 0,
        }
    }

    /// The parameter group this optimizer updates.
    pub fn ids(&self) -> &[ParamId] {
        &self.ids
    }

    /// Multiplies the base learning rate by `factor` (divergence-recovery
    /// backoff). The decay schedule keeps applying on top.
    pub fn scale_lr(&mut self, factor: f32) {
        self.cfg.lr *= factor;
    }

    /// Serializes the optimizer state (step counter, base learning rate
    /// and both moment buffers) for checkpointing. The parameter group
    /// itself is structural and is re-derived on restore.
    pub fn state(&self) -> AdamState {
        let ser = |ms: &[Matrix]| {
            ms.iter()
                .map(|m| SerializedMatrix {
                    rows: m.rows(),
                    cols: m.cols(),
                    data: m.as_slice().to_vec(),
                })
                .collect()
        };
        AdamState {
            t: self.t,
            lr: self.cfg.lr,
            m: ser(&self.m),
            v: ser(&self.v),
        }
    }

    /// Restores a [`AdamState`] captured from an optimizer over the same
    /// parameter group. Fails (instead of panicking) on a buffer-count or
    /// shape mismatch, so corrupt checkpoints surface as errors.
    pub fn restore_state(&mut self, state: &AdamState) -> Result<(), String> {
        if state.m.len() != self.ids.len() || state.v.len() != self.ids.len() {
            return Err(format!(
                "adam state holds {} moment buffers, optimizer has {} parameters",
                state.m.len(),
                self.ids.len()
            ));
        }
        let de = |sms: &[SerializedMatrix], cur: &[Matrix]| -> Result<Vec<Matrix>, String> {
            sms.iter()
                .zip(cur)
                .map(|(sm, existing)| {
                    if (sm.rows, sm.cols) != existing.shape() || sm.data.len() != sm.rows * sm.cols
                    {
                        return Err(format!(
                            "adam moment shape {}x{} (len {}) does not match parameter {}x{}",
                            sm.rows,
                            sm.cols,
                            sm.data.len(),
                            existing.rows(),
                            existing.cols()
                        ));
                    }
                    Ok(Matrix::from_vec(sm.rows, sm.cols, sm.data.clone()))
                })
                .collect()
        };
        let m = de(&state.m, &self.m)?;
        let v = de(&state.v, &self.v)?;
        self.m = m;
        self.v = v;
        self.t = state.t;
        self.cfg.lr = state.lr;
        Ok(())
    }

    /// Steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Current (decayed) learning rate.
    pub fn current_lr(&self) -> f32 {
        self.cfg.lr / (1.0 + self.cfg.decay * self.t as f32)
    }

    /// Applies one update from the gradients accumulated in `store`, then
    /// zeroes those gradients. Returns the pre-clip gradient global norm.
    pub fn step(&mut self, store: &mut ParamStore) -> f32 {
        self.t += 1;
        let decay_factor = 1.0 / (1.0 + self.cfg.decay * self.t as f32);
        let lr = self.cfg.lr * decay_factor;
        let l2 = self.cfg.l2 * decay_factor;

        // ℓ2 regularization folds into the gradient before clipping, the
        // same as adding (l2/2)‖w‖² to the loss.
        if l2 > 0.0 {
            for &id in &self.ids {
                let p = store.get_mut(id);
                let w = p.value.clone();
                p.grad.axpy(l2, &w);
            }
        }

        let norm = store.grad_global_norm(&self.ids);
        let scale = if norm.is_finite() && norm > self.cfg.clip_norm {
            self.cfg.clip_norm / norm
        } else if norm.is_finite() {
            1.0
        } else {
            0.0 // NaN/inf gradients: skip the update entirely
        };

        if scale > 0.0 {
            let (b1, b2, eps) = (self.cfg.beta1, self.cfg.beta2, self.cfg.eps);
            let bc1 = 1.0 - b1.powi(self.t as i32);
            let bc2 = 1.0 - b2.powi(self.t as i32);
            let (a1, a2, s1, s2, step) = (1.0 - b1, 1.0 - b2, 1.0 / bc1, 1.0 / bc2, -lr);
            for (k, &id) in self.ids.iter().enumerate() {
                // One pass per parameter with the multi-pass chain's
                // operations in its order, so the bits are the same (DESIGN
                // §18): g = grad·scale; m = m·b1, m = m + (1−b1)·g;
                // v = v·b2, v = v + (1−b2)·(g·g); w = w + (−lr)·((m·(1/bc1))
                // / (sqrt(v·(1/bc2)) + eps)); the gradient is zeroed.
                let p = store.get_mut(id);
                let value = Arc::make_mut(&mut p.value).as_mut_slice();
                let (m, v) = (self.m[k].as_mut_slice(), self.v[k].as_mut_slice());
                let grad = p.grad.as_mut_slice();
                assert!(
                    m.len() == value.len() && v.len() == value.len() && grad.len() == value.len(),
                    "adam moments and gradient must match the parameter's shape"
                );
                for (((w, gr), m), v) in value.iter_mut().zip(grad).zip(m).zip(v) {
                    let g = *gr * scale;
                    *gr = 0.0;
                    *m *= b1;
                    *m += a1 * g;
                    *v *= b2;
                    *v += a2 * (g * g);
                    let update = (*m * s1) / ((*v * s2).sqrt() + eps);
                    *w += step * update;
                }
            }
        } else {
            store.zero_grads_of(&self.ids);
        }
        norm
    }
}

/// Serializable optimizer state for checkpoint/resume.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdamState {
    /// Steps taken.
    pub t: u64,
    /// Base learning rate (captures any divergence backoff applied).
    pub lr: f32,
    /// First-moment buffers, in parameter-group order.
    pub m: Vec<SerializedMatrix>,
    /// Second-moment buffers, in parameter-group order.
    pub v: Vec<SerializedMatrix>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;

    /// Minimizes `(w - 3)^2` and expects convergence to 3.
    #[test]
    fn converges_on_quadratic() {
        let mut store = ParamStore::new();
        let id = store.add("w", Matrix::from_vec(1, 1, vec![0.0]));
        let mut adam = Adam::new(
            &store,
            vec![id],
            AdamConfig {
                lr: 0.1,
                l2: 0.0,
                decay: 0.0,
                ..AdamConfig::default()
            },
        );
        for _ in 0..300 {
            let mut t = Tape::new();
            let w = t.param(&store, id);
            let shifted = t.affine(w, 1.0, -3.0);
            let sq = t.mul(shifted, shifted);
            let loss = t.mean_all(sq);
            t.backward(loss, &mut store);
            adam.step(&mut store);
        }
        let w = store.value(id).get(0, 0);
        assert!((w - 3.0).abs() < 1e-2, "w = {w}");
    }

    #[test]
    fn clipping_bounds_update_magnitude() {
        let mut store = ParamStore::new();
        let id = store.add("w", Matrix::zeros(1, 4));
        let mut adam = Adam::new(
            &store,
            vec![id],
            AdamConfig {
                lr: 1.0,
                l2: 0.0,
                decay: 0.0,
                clip_norm: 1.0,
                ..AdamConfig::default()
            },
        );
        store.get_mut(id).grad = Matrix::filled(1, 4, 1000.0);
        let norm = adam.step(&mut store);
        assert!((norm - 2000.0).abs() < 1.0, "pre-clip norm = {norm}");
        // Adam's first step is ~lr regardless of magnitude, but the clip
        // must have kept internal moments finite.
        assert!(!store.value(id).has_non_finite());
    }

    #[test]
    fn nan_gradients_skip_update() {
        let mut store = ParamStore::new();
        let id = store.add("w", Matrix::filled(1, 2, 1.5));
        let mut adam = Adam::new(&store, vec![id], AdamConfig::default());
        store.get_mut(id).grad = Matrix::from_vec(1, 2, vec![f32::NAN, 1.0]);
        adam.step(&mut store);
        assert_eq!(store.value(id).as_slice(), &[1.5, 1.5]);
        assert_eq!(store.get(id).grad.sum(), 0.0, "grads must still reset");
    }

    #[test]
    fn lr_decays_with_steps() {
        let mut store = ParamStore::new();
        let id = store.add("w", Matrix::zeros(1, 1));
        let mut adam = Adam::new(
            &store,
            vec![id],
            AdamConfig {
                lr: 0.01,
                decay: 0.1,
                ..AdamConfig::default()
            },
        );
        let lr0 = adam.current_lr();
        for _ in 0..10 {
            store.get_mut(id).grad = Matrix::filled(1, 1, 1.0);
            adam.step(&mut store);
        }
        assert!(adam.current_lr() < lr0);
        assert!((adam.current_lr() - 0.01 / 2.0).abs() < 1e-4);
    }

    #[test]
    fn l2_pulls_weights_toward_zero() {
        let mut store = ParamStore::new();
        let id = store.add("w", Matrix::filled(1, 1, 5.0));
        let mut adam = Adam::new(
            &store,
            vec![id],
            AdamConfig {
                lr: 0.05,
                l2: 0.5,
                decay: 0.0,
                ..AdamConfig::default()
            },
        );
        for _ in 0..200 {
            // No data gradient at all: only the regularizer acts.
            adam.step(&mut store);
        }
        let w = store.value(id).get(0, 0);
        assert!(w.abs() < 1.0, "w = {w}");
    }

    /// Checkpoint fidelity: stepping A→state→B and continuing both with
    /// identical gradients must keep parameters bit-identical.
    #[test]
    fn state_round_trip_resumes_bit_identically() {
        let mut store_a = ParamStore::new();
        let id_a = store_a.add("w", Matrix::from_vec(1, 3, vec![1.0, -2.0, 0.5]));
        let mut adam_a = Adam::new(&store_a, vec![id_a], AdamConfig::default());
        for k in 0..7 {
            store_a.get_mut(id_a).grad = Matrix::filled(1, 3, 0.3 + k as f32 * 0.1);
            adam_a.step(&mut store_a);
        }
        let state = adam_a.state();
        let mut store_b = store_a.clone();
        let mut adam_b = Adam::new(&store_b, vec![id_a], AdamConfig::default());
        adam_b.restore_state(&state).unwrap();
        for k in 0..9 {
            let g = Matrix::filled(1, 3, -0.2 + k as f32 * 0.05);
            store_a.get_mut(id_a).grad = g.clone();
            store_b.get_mut(id_a).grad = g;
            adam_a.step(&mut store_a);
            adam_b.step(&mut store_b);
            assert_eq!(
                store_a.value(id_a).as_slice(),
                store_b.value(id_a).as_slice(),
                "divergence after resumed step {k}"
            );
        }
    }

    #[test]
    fn restore_state_rejects_mismatched_buffers() {
        let mut store = ParamStore::new();
        let id = store.add("w", Matrix::zeros(2, 2));
        let mut adam = Adam::new(&store, vec![id], AdamConfig::default());
        let mut state = adam.state();
        state.m[0].rows = 3; // corrupt shape
        assert!(adam.restore_state(&state).is_err());
        let mut state = adam.state();
        state.v.pop(); // corrupt buffer count
        assert!(adam.restore_state(&state).is_err());
    }

    /// The divergence-recovery backoff path: scaling the learning rate
    /// halves every subsequent update and survives a state round-trip.
    #[test]
    fn lr_backoff_scales_updates_and_checkpoints() {
        let mut store = ParamStore::new();
        let id = store.add("w", Matrix::zeros(1, 1));
        let cfg = AdamConfig {
            lr: 0.1,
            l2: 0.0,
            decay: 0.0,
            ..AdamConfig::default()
        };
        let mut adam = Adam::new(&store, vec![id], cfg.clone());
        adam.scale_lr(0.5);
        assert!((adam.current_lr() - 0.05).abs() < 1e-9);
        // The backed-off rate must be what the state carries.
        let state = adam.state();
        assert!((state.lr - 0.05).abs() < 1e-9);
        let mut fresh = Adam::new(&store, vec![id], cfg);
        fresh.restore_state(&state).unwrap();
        assert!((fresh.current_lr() - 0.05).abs() < 1e-9);
        // And a first step moves by ~lr (Adam's unit-magnitude property).
        store.get_mut(id).grad = Matrix::filled(1, 1, 10.0);
        fresh.step(&mut store);
        let w = store.value(id).get(0, 0);
        assert!((w.abs() - 0.05).abs() < 1e-3, "w = {w}");
    }

    /// The multi-pass step [`Adam::step`] fused, kept as the reference it
    /// must equal bit for bit: `scale`, `scale_mut`/`axpy`, `hadamard`,
    /// two more `scale`s and a `zip_map`, then `axpy` into the value.
    fn step_reference(adam: &mut Adam, store: &mut ParamStore) -> f32 {
        adam.t += 1;
        let decay_factor = 1.0 / (1.0 + adam.cfg.decay * adam.t as f32);
        let lr = adam.cfg.lr * decay_factor;
        let l2 = adam.cfg.l2 * decay_factor;
        if l2 > 0.0 {
            for &id in &adam.ids {
                let p = store.get_mut(id);
                let w = p.value.clone();
                p.grad.axpy(l2, &w);
            }
        }
        let norm = store.grad_global_norm(&adam.ids);
        let scale = if norm.is_finite() && norm > adam.cfg.clip_norm {
            adam.cfg.clip_norm / norm
        } else if norm.is_finite() {
            1.0
        } else {
            0.0
        };
        if scale > 0.0 {
            let bc1 = 1.0 - adam.cfg.beta1.powi(adam.t as i32);
            let bc2 = 1.0 - adam.cfg.beta2.powi(adam.t as i32);
            for (k, &id) in adam.ids.iter().enumerate() {
                let g = store.get(id).grad.scale(scale);
                adam.m[k].scale_mut(adam.cfg.beta1);
                adam.m[k].axpy(1.0 - adam.cfg.beta1, &g);
                adam.v[k].scale_mut(adam.cfg.beta2);
                let g2 = g.hadamard(&g);
                adam.v[k].axpy(1.0 - adam.cfg.beta2, &g2);
                let mhat = adam.m[k].scale(1.0 / bc1);
                let vhat = adam.v[k].scale(1.0 / bc2);
                let update = mhat.zip_map(&vhat, |m, v| m / (v.sqrt() + adam.cfg.eps));
                store.value_mut(id).axpy(-lr, &update);
            }
        }
        store.zero_grads_of(&adam.ids);
        norm
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// The fused step against [`step_reference`] over 40 steps on three
    /// parameter groups (one outside the optimizer), with and without ℓ2
    /// and decay, through ordinary, clipped (huge), zero and non-finite
    /// (NaN, ±inf) gradients: values, moments, gradients, the returned
    /// norm and the step counter, by bits.
    #[test]
    fn fused_step_equals_the_multi_pass_step_bit_for_bit() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(21);
        for (l2, decay, clip_norm) in [
            (0.0, 0.0, 5.0),
            (1e-5, 1e-4, 5.0),
            (0.3, 0.1, 0.5),
            (1e-3, 0.0, f32::INFINITY),
        ] {
            let mut store = ParamStore::new();
            let shapes = [(3usize, 5usize), (1, 1), (24, 96), (0, 4), (7, 9)];
            let ids: Vec<ParamId> = shapes
                .iter()
                .enumerate()
                .map(|(i, &(r, c))| {
                    let m = Matrix::from_fn(r, c, |_, _| rng.gen_range(-2.0..2.0));
                    store.add(format!("p{i}"), m)
                })
                .collect();
            let cfg = AdamConfig {
                l2,
                decay,
                clip_norm,
                ..AdamConfig::default()
            };
            // The last parameter is outside the group: untouched by both.
            let group = ids[..4].to_vec();
            let mut fused = Adam::new(&store, group.clone(), cfg.clone());
            let mut reference = Adam::new(&store, group, cfg);
            let mut want_store = store.clone();
            for step in 0..40 {
                for &id in &ids {
                    let (r, c) = store.value(id).shape();
                    let magnitude = match step % 5 {
                        0 => 1e4, // clipped
                        1 => 0.0,
                        _ => 1.0,
                    };
                    let mut g = Matrix::from_fn(r, c, |_, _| rng.gen_range(-1.0..1.0) * magnitude);
                    if step % 7 == 3 && r * c > 0 {
                        let poison = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][step % 3];
                        g.as_mut_slice()[0] = poison;
                    }
                    store.get_mut(id).grad = g.clone();
                    want_store.get_mut(id).grad = g;
                }
                let got_norm = fused.step(&mut store);
                let want_norm = step_reference(&mut reference, &mut want_store);
                let case = format!("l2 {l2}, decay {decay}, clip {clip_norm}, step {step}");
                assert_eq!(got_norm.to_bits(), want_norm.to_bits(), "norm, {case}");
                assert_eq!(fused.t, reference.t, "{case}");
                for &id in &ids {
                    assert_eq!(
                        bits(store.value(id)),
                        bits(want_store.value(id)),
                        "value, {case}"
                    );
                    assert_eq!(
                        bits(&store.get(id).grad),
                        bits(&want_store.get(id).grad),
                        "grad, {case}"
                    );
                }
                for k in 0..fused.m.len() {
                    assert_eq!(bits(&fused.m[k]), bits(&reference.m[k]), "m, {case}");
                    assert_eq!(bits(&fused.v[k]), bits(&reference.v[k]), "v, {case}");
                }
            }
        }
    }

    #[test]
    fn optimizer_groups_do_not_interfere() {
        let mut store = ParamStore::new();
        let a = store.add("a", Matrix::filled(1, 1, 1.0));
        let b = store.add("b", Matrix::filled(1, 1, 1.0));
        let mut adam_a = Adam::new(
            &store,
            vec![a],
            AdamConfig {
                l2: 0.0,
                ..AdamConfig::default()
            },
        );
        store.get_mut(a).grad = Matrix::filled(1, 1, 1.0);
        store.get_mut(b).grad = Matrix::filled(1, 1, 1.0);
        adam_a.step(&mut store);
        // a moved, b untouched (its pending grad preserved).
        assert!(store.value(a).get(0, 0) < 1.0);
        assert_eq!(store.value(b).get(0, 0), 1.0);
        assert_eq!(store.get(b).grad.get(0, 0), 1.0);
    }
}
