//! Admission batching: leader/follower request combining.
//!
//! Concurrent queries for the same (algorithm, mode) are coalesced into
//! one execution. The first arrival becomes the **leader**: it opens a
//! slot, sleeps one admission window while followers append their
//! sources, then closes the slot and executes a single multi-source run
//! over the union source set. Followers block on the slot's condvar and
//! wake holding the shared outcome. The service's answer is therefore
//! defined as *the fixpoint of the union query* — every reply carries
//! the effective source set so clients (and the stress test) can
//! reproduce the exact run.
//!
//! Global algorithms (empty source sets) combine too: the union is
//! empty and coalescing is pure dedup of identical work.
//!
//! Only queries that execute come here: one the epoch already holds the
//! answer to is replied to before admission (see
//! `ServeCore::execute_query`) — it has nothing to share and nothing
//! worth a window's wait.

use gograph_graph::VertexId;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// What [`AdmissionQueue::submit`] resolved a request into.
pub enum Admission<T> {
    /// This request leads the batch: execute the union query for
    /// `sources` and hand the outcome to [`AdmissionQueue::complete`].
    Lead {
        /// The slot to complete (opaque to callers).
        slot: Arc<Slot<T>>,
        /// Union of every admitted request's sources, in admission
        /// order (leader first), deduplicated.
        sources: Vec<VertexId>,
        /// How many requests were admitted into this batch (>= 1).
        admitted: usize,
    },
    /// This request was admitted into another leader's batch; the
    /// leader's outcome is already here.
    Follow(T),
}

/// One open (or executing) batch.
#[derive(Debug)]
pub struct Slot<T> {
    state: Mutex<SlotState<T>>,
    done: Condvar,
}

#[derive(Debug)]
struct SlotState<T> {
    sources: Vec<VertexId>,
    admitted: usize,
    outcome: Option<T>,
    /// Set if the leader aborted (execution error): followers retry
    /// solo rather than hang.
    poisoned: bool,
}

/// Combines concurrent same-key requests into one execution per
/// admission window. `T` is the shared outcome type (an `Arc` in
/// practice).
#[derive(Debug)]
pub struct AdmissionQueue<Key: Eq + Hash + Clone, T: Clone> {
    window: Duration,
    open: Mutex<HashMap<Key, Arc<Slot<T>>>>,
}

impl<Key: Eq + Hash + Clone, T: Clone> AdmissionQueue<Key, T> {
    /// A queue whose leaders hold admission open for `window`. A zero
    /// window still combines requests that arrive while the leader is
    /// executing-adjacent bookkeeping, but in practice admits ~1.
    pub fn new(window: Duration) -> Self {
        AdmissionQueue {
            window,
            open: Mutex::new(HashMap::new()),
        }
    }

    /// Submits a request with `sources` under `key`. Returns either the
    /// leader role (caller must execute and [`complete`](Self::complete)
    /// the slot) or, after blocking, the outcome computed by the batch
    /// leader.
    pub fn submit(&self, key: Key, sources: &[VertexId]) -> Admission<T> {
        let slot = {
            let mut open = crate::lock_unpoisoned(&self.open);
            if let Some(slot) = open.get(&key) {
                // Join the open batch.
                let slot = Arc::clone(slot);
                let mut st = crate::lock_unpoisoned(&slot.state);
                st.sources.extend_from_slice(sources);
                st.admitted += 1;
                drop(st);
                drop(open);
                return self.wait(&slot, sources);
            }
            let slot = Arc::new(Slot {
                state: Mutex::new(SlotState {
                    sources: sources.to_vec(),
                    admitted: 1,
                    outcome: None,
                    poisoned: false,
                }),
                done: Condvar::new(),
            });
            open.insert(key.clone(), Arc::clone(&slot));
            slot
        };

        // Leader: hold admission open for one window, then close it so
        // the union set is frozen before execution.
        if !self.window.is_zero() {
            std::thread::sleep(self.window);
        }
        crate::lock_unpoisoned(&self.open).remove(&key);

        let st = crate::lock_unpoisoned(&slot.state);
        let mut union = st.sources.clone();
        let admitted = st.admitted;
        drop(st);
        let mut seen = std::collections::HashSet::new();
        union.retain(|s| seen.insert(*s));
        Admission::Lead {
            slot,
            sources: union,
            admitted,
        }
    }

    fn wait(&self, slot: &Arc<Slot<T>>, sources: &[VertexId]) -> Admission<T> {
        let mut st = crate::lock_unpoisoned(&slot.state);
        loop {
            if let Some(outcome) = st.outcome.clone() {
                return Admission::Follow(outcome);
            }
            if st.poisoned {
                // Leader died; run solo (degenerate batch of one).
                return Admission::Lead {
                    slot: Arc::new(Slot {
                        state: Mutex::new(SlotState {
                            sources: sources.to_vec(),
                            admitted: 1,
                            outcome: None,
                            poisoned: false,
                        }),
                        done: Condvar::new(),
                    }),
                    sources: sources.to_vec(),
                    admitted: 1,
                };
            }
            st = slot.done.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Batches currently holding admission open.
    #[cfg(test)]
    pub(crate) fn open_slots(&self) -> usize {
        crate::lock_unpoisoned(&self.open).len()
    }

    /// Leader hand-off: publishes `outcome` to every follower of `slot`.
    pub fn complete(&self, slot: &Arc<Slot<T>>, outcome: T) {
        let mut st = crate::lock_unpoisoned(&slot.state);
        st.outcome = Some(outcome);
        slot.done.notify_all();
    }

    /// Leader abort: wakes followers so they retry solo instead of
    /// waiting forever.
    pub fn poison(&self, slot: &Arc<Slot<T>>) {
        let mut st = crate::lock_unpoisoned(&slot.state);
        st.poisoned = true;
        slot.done.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn solo_request_leads_with_its_own_sources() {
        let q: AdmissionQueue<u8, Arc<u32>> = AdmissionQueue::new(Duration::ZERO);
        match q.submit(1, &[42, 42, 7]) {
            Admission::Lead {
                sources, admitted, ..
            } => {
                assert_eq!(sources, vec![42, 7], "deduplicated, order kept");
                assert_eq!(admitted, 1);
            }
            Admission::Follow(_) => panic!("no open batch to follow"),
        }
    }

    #[test]
    fn concurrent_same_key_requests_coalesce() {
        let q: Arc<AdmissionQueue<u8, Arc<Vec<u32>>>> =
            Arc::new(AdmissionQueue::new(Duration::from_millis(60)));
        let executions = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for i in 0..6u32 {
            let q = Arc::clone(&q);
            let executions = Arc::clone(&executions);
            handles.push(std::thread::spawn(move || match q.submit(9, &[i]) {
                Admission::Lead { slot, sources, .. } => {
                    executions.fetch_add(1, Ordering::SeqCst);
                    let out = Arc::new(sources.clone());
                    q.complete(&slot, Arc::clone(&out));
                    out
                }
                Admission::Follow(out) => out,
            }));
        }
        let results: Vec<Arc<Vec<u32>>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Every thread that joined the first leader's window shares one
        // outcome; stragglers may have led their own batch, but with 6
        // near-simultaneous submits and a 60ms window we expect far
        // fewer executions than submissions.
        let execs = executions.load(Ordering::SeqCst);
        assert!(
            execs < 6,
            "coalescing must merge some requests (got {execs})"
        );
        // Each result contains the sources of everyone in its batch.
        for (i, r) in results.iter().enumerate() {
            assert!(
                r.contains(&(i as u32)) || execs > 1,
                "a single batch must contain every admitted source"
            );
        }
    }

    #[test]
    fn different_keys_do_not_combine() {
        let q: Arc<AdmissionQueue<u8, Arc<u32>>> =
            Arc::new(AdmissionQueue::new(Duration::from_millis(40)));
        let qa = Arc::clone(&q);
        let a = std::thread::spawn(move || match qa.submit(1, &[10]) {
            Admission::Lead { slot, sources, .. } => {
                qa.complete(&slot, Arc::new(sources[0]));
                true
            }
            Admission::Follow(_) => false,
        });
        let qb = Arc::clone(&q);
        let b = std::thread::spawn(move || match qb.submit(2, &[20]) {
            Admission::Lead { slot, sources, .. } => {
                qb.complete(&slot, Arc::new(sources[0]));
                true
            }
            Admission::Follow(_) => false,
        });
        assert!(a.join().unwrap(), "key 1 must lead its own batch");
        assert!(b.join().unwrap(), "key 2 must lead its own batch");
    }
}
