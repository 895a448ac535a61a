//! The per-tenant admission layer: token-bucket gating and usage
//! accounting *ahead of* the shared [`AdmissionQueue`].
//!
//! Isolation story: the shared queue bounds total work, but alone it is
//! first-come-first-served — one hot tenant can fill every window and
//! starve the rest. The [`TenantGate`] puts a [`TokenBucket`] in front,
//! per tenant, so a tenant's *sustained* admission rate is capped no
//! matter how fast it offers; its excess is refused with a typed
//! throttle (carrying a retry hint) before it ever touches the shared
//! queue. Compliant tenants then see the queue as if the hot tenant
//! were compliant too — the fairness property the `VirtualClock` tests
//! prove deterministically.
//!
//! Accounting is symmetric and exact: every gate decision increments
//! one counter in the engine's per-tenant usage rows
//! ([`anns_engine::TenantUsage`]) and emits one `tenant_decision`
//! trace event, so a complete trace reconciles with the usage report
//! by equality, not approximately.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use anns_engine::admission::{AdmissionQueue, Resolution, Ticket};
use anns_engine::Clock;
use anns_engine::{NamedRequest, ServeError, TraceEvent};

use crate::bucket::TokenBucket;
use crate::frame::{ErrorCode, WireFault};

/// One tenant's rate-limit configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TenantPolicy {
    /// Sustained admission rate, tokens (queries) per second.
    pub rate_per_sec: f64,
    /// Bucket capacity: the burst admitted back-to-back from idle.
    pub burst: f64,
}

impl Default for TenantPolicy {
    /// Permissive default for unconfigured tenants: 1000 q/s with a
    /// burst of 256.
    fn default() -> Self {
        TenantPolicy {
            rate_per_sec: 1000.0,
            burst: 256.0,
        }
    }
}

/// Why the gate refused a request.
#[derive(Clone, Debug, PartialEq)]
pub enum Denied {
    /// The tenant's own bucket is empty; the shared queue was never
    /// consulted. `retry_after_ns` is the refill hint.
    Throttled {
        /// Clock ns until the tenant's next token.
        retry_after_ns: u64,
        /// The tenant's bucket capacity (rounded), for the error frame.
        burst: u64,
    },
    /// The bucket passed but the shared queue refused
    /// ([`ServeError::Overloaded`] or [`ServeError::Closed`]).
    Engine(ServeError),
}

impl Denied {
    /// The typed wire form of this refusal.
    pub fn to_fault(&self, depth: u64) -> WireFault {
        match self {
            Denied::Throttled {
                retry_after_ns,
                burst,
            } => WireFault {
                code: ErrorCode::Throttled,
                depth,
                capacity: *burst,
                message: format!("token bucket empty; retry in {retry_after_ns}ns"),
            },
            Denied::Engine(e) => WireFault::from_serve_error(e),
        }
    }
}

impl std::fmt::Display for Denied {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Denied::Throttled { retry_after_ns, .. } => {
                write!(f, "throttled: next token in {retry_after_ns}ns")
            }
            Denied::Engine(e) => write!(f, "{e}"),
        }
    }
}

/// The per-tenant gate in front of one shared [`AdmissionQueue`].
pub struct TenantGate {
    queue: Arc<AdmissionQueue>,
    clock: Arc<dyn Clock>,
    default_policy: TenantPolicy,
    policies: HashMap<String, TenantPolicy>,
    buckets: Mutex<HashMap<String, TokenBucket>>,
}

impl TenantGate {
    /// A gate over `queue`, reading time from `clock` (inject the
    /// queue's own clock so throttle decisions and seal deadlines share
    /// a timeline). Tenants not configured via
    /// [`TenantGate::with_policy`] get `default_policy` on first sight.
    pub fn new(
        queue: Arc<AdmissionQueue>,
        clock: Arc<dyn Clock>,
        default_policy: TenantPolicy,
    ) -> Self {
        TenantGate {
            queue,
            clock,
            default_policy,
            policies: HashMap::new(),
            buckets: Mutex::new(HashMap::new()),
        }
    }

    /// Configures one tenant's policy and materializes its bucket and
    /// zeroed usage row immediately (so reports list configured tenants
    /// even before their first request).
    pub fn with_policy(mut self, tenant: &str, policy: TenantPolicy) -> Self {
        self.policies.insert(tenant.to_string(), policy);
        self.buckets
            .get_mut()
            .unwrap_or_else(|e| e.into_inner())
            .insert(
                tenant.to_string(),
                TokenBucket::new(policy.rate_per_sec, policy.burst, self.clock.now_ns()),
            );
        self.queue.engine().absorb_tenant(tenant, |_| {});
        self
    }

    /// The policy `tenant` is (or would be) governed by.
    pub fn policy_for(&self, tenant: &str) -> TenantPolicy {
        self.policies
            .get(tenant)
            .copied()
            .unwrap_or(self.default_policy)
    }

    /// The shared queue behind the gate.
    pub fn queue(&self) -> &Arc<AdmissionQueue> {
        &self.queue
    }

    /// Tokens currently available to `tenant` (materializes its bucket).
    pub fn tokens_available(&self, tenant: &str) -> f64 {
        let now = self.clock.now_ns();
        let mut buckets = self.buckets.lock().unwrap_or_else(|e| e.into_inner());
        self.bucket_mut(&mut buckets, tenant, now).available(now)
    }

    fn bucket_mut<'a>(
        &self,
        buckets: &'a mut HashMap<String, TokenBucket>,
        tenant: &str,
        now_ns: u64,
    ) -> &'a mut TokenBucket {
        if !buckets.contains_key(tenant) {
            let policy = self.policy_for(tenant);
            buckets.insert(
                tenant.to_string(),
                TokenBucket::new(policy.rate_per_sec, policy.burst, now_ns),
            );
        }
        buckets.get_mut(tenant).expect("just inserted")
    }

    /// Gates and enqueues one request: the tenant's bucket first, then
    /// the shared queue ([`AdmissionQueue::enqueue_as`], which tags the
    /// admitted/shed outcome). Each refusal is typed and accounted —
    /// never a silent drop.
    pub fn submit(&self, tenant: &str, request: NamedRequest) -> Result<Ticket, Denied> {
        let now = self.clock.now_ns();
        let (admitted, retry_after_ns, burst) = {
            let mut buckets = self.buckets.lock().unwrap_or_else(|e| e.into_inner());
            let bucket = self.bucket_mut(&mut buckets, tenant, now);
            if bucket.try_take(now) {
                (true, 0, bucket.burst())
            } else {
                (false, bucket.ns_until_token(now), bucket.burst())
            }
        };
        if !admitted {
            let engine = self.queue.engine();
            engine.absorb_tenant(tenant, |u| u.throttled += 1);
            let obs = engine.recorder();
            if obs.enabled() {
                obs.record(TraceEvent::TenantDecision {
                    tenant: tenant.to_string(),
                    decision: "throttled".to_string(),
                    depth: self.queue.depth() as u64,
                });
            }
            return Err(Denied::Throttled {
                retry_after_ns,
                burst: burst.round() as u64,
            });
        }
        self.queue
            .enqueue_as(Some(tenant), request)
            .map_err(Denied::Engine)
    }

    /// Books a resolved ticket's outcome against the tenant: served or
    /// failed, probe cost, admission wait. Call once per resolution —
    /// the counterpart that closes the loop `submit` opened.
    pub fn settle(&self, tenant: &str, resolution: &Resolution) {
        self.queue.engine().absorb_tenant(tenant, |u| {
            u.wait_hist.record(resolution.wait_ns);
            match &resolution.result {
                Ok(served) => {
                    u.served += 1;
                    u.probes += served.ledger.total_probes() as u64;
                }
                Err(_) => u.failed += 1,
            }
        });
    }
}
