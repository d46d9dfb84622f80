//! Trainable parameters.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;
use tensor::Matrix;

/// Handle to a parameter inside a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// The dense index of this parameter.
    pub fn index(&self) -> usize {
        self.0
    }
}

/// A named trainable matrix with its gradient accumulator.
#[derive(Debug, Clone)]
pub struct Param {
    /// Unique dotted-path name (used by snapshots).
    pub name: String,
    /// Current parameter values, shared with the [`crate::Tape`]s that
    /// bind them (copy-on-write: see [`ParamStore::value_mut`]).
    pub value: Arc<Matrix>,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Matrix,
}

/// Registry of all trainable parameters of a model.
///
/// Layers allocate their parameters here at construction and keep only
/// [`ParamId`]s; forward passes bind ids onto a [`crate::Tape`], and the
/// optimizer walks the store. This mirrors the paper's three separately
/// optimized parameter groups Θ_F, Θ_P, Θ_E (§4.4): each group is simply a
/// list of ids passed to its own Adam instance.
#[derive(Debug, Default, Clone)]
pub struct ParamStore {
    params: Vec<Param>,
}

impl ParamStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter initialized to `value`.
    pub fn add(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        let id = ParamId(self.params.len());
        let grad = Matrix::zeros(value.rows(), value.cols());
        self.params.push(Param {
            name: name.into(),
            value: Arc::new(value),
            grad,
        });
        id
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total scalar count across all parameters.
    pub fn num_scalars(&self) -> usize {
        self.params.iter().map(|p| p.value.len()).sum()
    }

    /// Immutable access.
    pub fn get(&self, id: ParamId) -> &Param {
        &self.params[id.0]
    }

    /// Mutable access.
    pub fn get_mut(&mut self, id: ParamId) -> &mut Param {
        &mut self.params[id.0]
    }

    /// The current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.params[id.0].value
    }

    /// Mutable access to a parameter's value; copies only while a tape
    /// still shares it.
    pub fn value_mut(&mut self, id: ParamId) -> &mut Matrix {
        Arc::make_mut(&mut self.params[id.0].value)
    }

    /// All ids in registration order.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.params.len()).map(ParamId)
    }

    /// Zeroes every gradient accumulator.
    pub fn zero_grads(&mut self) {
        for p in &mut self.params {
            p.grad.fill_zero();
        }
    }

    /// Zeroes the gradients of a subset of parameters.
    pub fn zero_grads_of(&mut self, ids: &[ParamId]) {
        for id in ids {
            self.params[id.0].grad.fill_zero();
        }
    }

    /// Global ℓ2 norm of the gradients of `ids`.
    pub fn grad_global_norm(&self, ids: &[ParamId]) -> f32 {
        ids.iter()
            .map(|id| {
                let g = &self.params[id.0].grad;
                g.dot(g)
            })
            .sum::<f32>()
            .sqrt()
    }

    /// Serializes parameter values as `name -> row-major floats`.
    pub fn to_snapshot(&self) -> ParamSnapshot {
        ParamSnapshot {
            params: self
                .params
                .iter()
                .map(|p| {
                    (
                        p.name.clone(),
                        SerializedMatrix {
                            rows: p.value.rows(),
                            cols: p.value.cols(),
                            data: p.value.as_slice().to_vec(),
                        },
                    )
                })
                .collect(),
        }
    }

    /// Restores values from a snapshot, matching by name; shapes must agree.
    ///
    /// Returns the number of parameters restored.
    pub fn load_snapshot(&mut self, snap: &ParamSnapshot) -> usize {
        self.try_load_snapshot(snap).expect("valid snapshot")
    }

    /// [`ParamStore::load_snapshot`] that reports mismatches instead of
    /// panicking, so corrupt or de-schema'd snapshot files surface as
    /// typed errors. No parameter is modified unless every named match
    /// validates.
    pub fn try_load_snapshot(&mut self, snap: &ParamSnapshot) -> Result<usize, String> {
        for p in &self.params {
            if let Some(sm) = snap.params.get(&p.name) {
                if (sm.rows, sm.cols) != p.value.shape() {
                    return Err(format!(
                        "snapshot shape mismatch for `{}`: stored {}x{}, model expects {}x{}",
                        p.name,
                        sm.rows,
                        sm.cols,
                        p.value.rows(),
                        p.value.cols()
                    ));
                }
                if sm.data.len() != sm.rows * sm.cols {
                    return Err(format!(
                        "snapshot for `{}` holds {} values for a {}x{} shape",
                        p.name,
                        sm.data.len(),
                        sm.rows,
                        sm.cols
                    ));
                }
            }
        }
        let mut n = 0;
        for p in &mut self.params {
            if let Some(sm) = snap.params.get(&p.name) {
                p.value = Arc::new(Matrix::from_vec(sm.rows, sm.cols, sm.data.clone()));
                n += 1;
            }
        }
        Ok(n)
    }
}

/// Serde-friendly dump of parameter values.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ParamSnapshot {
    /// Parameter values keyed by name.
    pub params: BTreeMap<String, SerializedMatrix>,
}

/// Row-major matrix payload inside a snapshot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SerializedMatrix {
    /// Row count.
    pub rows: usize,
    /// Column count.
    pub cols: usize,
    /// Row-major values.
    pub data: Vec<f32>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_access() {
        let mut store = ParamStore::new();
        let id = store.add("w", Matrix::filled(2, 3, 1.5));
        assert_eq!(store.len(), 1);
        assert_eq!(store.num_scalars(), 6);
        assert_eq!(store.get(id).name, "w");
        assert_eq!(store.value(id).get(1, 2), 1.5);
        assert_eq!(store.get(id).grad.shape(), (2, 3));
    }

    #[test]
    fn zero_grads_resets() {
        let mut store = ParamStore::new();
        let a = store.add("a", Matrix::zeros(1, 2));
        let b = store.add("b", Matrix::zeros(1, 2));
        store.get_mut(a).grad = Matrix::filled(1, 2, 3.0);
        store.get_mut(b).grad = Matrix::filled(1, 2, 4.0);
        store.zero_grads_of(&[a]);
        assert_eq!(store.get(a).grad.sum(), 0.0);
        assert_eq!(store.get(b).grad.sum(), 8.0);
        store.zero_grads();
        assert_eq!(store.get(b).grad.sum(), 0.0);
    }

    #[test]
    fn grad_global_norm_matches_manual() {
        let mut store = ParamStore::new();
        let a = store.add("a", Matrix::zeros(1, 2));
        let b = store.add("b", Matrix::zeros(1, 1));
        store.get_mut(a).grad = Matrix::from_vec(1, 2, vec![3.0, 0.0]);
        store.get_mut(b).grad = Matrix::from_vec(1, 1, vec![4.0]);
        let n = store.grad_global_norm(&[a, b]);
        assert!((n - 5.0).abs() < 1e-6);
    }

    #[test]
    fn snapshot_round_trip() {
        let mut store = ParamStore::new();
        let id = store.add("layer/w", Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let snap = store.to_snapshot();
        *store.value_mut(id) = Matrix::zeros(2, 2);
        let restored = store.load_snapshot(&snap);
        assert_eq!(restored, 1);
        assert_eq!(store.value(id).as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn try_load_snapshot_rejects_bad_shapes_without_mutation() {
        let mut store = ParamStore::new();
        let id = store.add("w", Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let mut snap = store.to_snapshot();
        // Shape lies about the payload.
        snap.params.get_mut("w").unwrap().rows = 3;
        assert!(store.try_load_snapshot(&snap).is_err());
        assert_eq!(
            store.value(id).as_slice(),
            &[1.0, 2.0, 3.0, 4.0],
            "failed load must not mutate parameters"
        );
        // Payload length disagrees with the declared shape.
        let mut snap = store.to_snapshot();
        snap.params.get_mut("w").unwrap().data.pop();
        assert!(store.try_load_snapshot(&snap).is_err());
    }

    #[test]
    fn snapshot_json_round_trip() {
        let mut store = ParamStore::new();
        store.add("w", Matrix::from_vec(1, 3, vec![0.5, -0.5, 2.0]));
        let json = serde_json::to_string(&store.to_snapshot()).unwrap();
        let snap: ParamSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap.params["w"].data, vec![0.5, -0.5, 2.0]);
    }
}
