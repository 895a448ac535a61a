//! The `annsctl bench-server` artifact: the multi-tenant loopback
//! workload's client-observed outcome counters and latency splits, one
//! row per tenant. Shared between the binary that writes it and the
//! end-to-end tests that read it back.
//!
//! The counters are designed to be *deterministic* under the CI tenant
//! policies: a hot tenant whose bucket never refills (`hot:0:B`) is
//! admitted exactly `B` times and throttled `offered − B` times,
//! timing-free; compliant tenants offering within their burst see zero
//! refusals. So every tenant's served and throttled counts are exact
//! gate rows ([`BenchServerReport::metrics`]), and only the latency
//! columns are runner-speed-dependent.

use serde::{Deserialize, Serialize};

use crate::gate::{Better, Metric};

/// `bench-server` output: workload config plus one row per tenant.
#[derive(Clone, Serialize, Deserialize)]
pub struct BenchServerReport {
    /// The workload that produced the rows.
    pub config: BenchServerConfig,
    /// Per-tenant outcomes, in submission order.
    pub tenants: Vec<TenantBenchRow>,
}

impl BenchServerReport {
    /// The row for `tenant`, if the run included it.
    pub fn tenant(&self, name: &str) -> Option<&TenantBenchRow> {
        self.tenants.iter().find(|t| t.tenant == name)
    }

    /// The gate rows: each tenant's served and throttled counts (exact)
    /// and its socket-to-ticket and socket-to-answer medians (wall clock
    /// over loopback on shared runners, so a loose band).
    pub fn metrics(&self) -> Vec<Metric> {
        self.tenants
            .iter()
            .flat_map(|row| {
                let t = &row.tenant;
                [
                    Metric::exact(format!("server.{t}.served"), row.served as f64),
                    Metric::exact(format!("server.{t}.throttled"), row.throttled as f64),
                    Metric::wall(
                        format!("server.{t}.ticket_p50_us"),
                        row.ticket_p50_us,
                        Better::Lower,
                        4.0,
                    ),
                    Metric::wall(
                        format!("server.{t}.answer_p50_us"),
                        row.answer_p50_us,
                        Better::Lower,
                        4.0,
                    ),
                ]
            })
            .collect()
    }

    /// The run's broken invariants, one message each, naming the tenant:
    /// outcomes must partition the offered load; a healthy server refuses
    /// excess with `Throttled` only (a queue shed or closed-queue error
    /// means the capacity plan is wrong); and a compliant tenant is never
    /// refused and is served in full.
    pub fn violations(&self) -> Vec<String> {
        let mut failures = Vec::new();
        for spec in &self.config.tenants {
            let name = &spec.name;
            let Some(row) = self.tenant(name) else {
                failures.push(format!("tenant {name} has no row"));
                continue;
            };
            let total = row.served + row.throttled + row.overloaded + row.closed + row.failed;
            if total != spec.offered {
                failures.push(format!(
                    "tenant {name}: outcomes sum to {total}, offered {}",
                    spec.offered
                ));
            }
            if row.overloaded + row.closed + row.failed > 0 {
                failures.push(format!(
                    "tenant {name} saw {} overloaded / {} closed / {} failed",
                    row.overloaded, row.closed, row.failed
                ));
            }
            if !spec.hot && row.throttled > 0 {
                failures.push(format!(
                    "compliant tenant {name} was throttled {} time(s)",
                    row.throttled
                ));
            }
            if !spec.hot && row.served != spec.offered {
                failures.push(format!(
                    "compliant tenant {name} was served {}/{}",
                    row.served, spec.offered
                ));
            }
        }
        failures
    }
}

/// The workload shape: which tenants offered how much, under which
/// seed, in which mode.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchServerConfig {
    /// Per-tenant offered load, in submission (round-robin) order.
    pub tenants: Vec<TenantWorkloadSpec>,
    pub seed: u64,
    pub quick: bool,
}

/// One tenant's place in the workload.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantWorkloadSpec {
    pub name: String,
    /// Queries this tenant offers over the run.
    pub offered: u64,
    /// Whether this tenant intentionally offers beyond its token
    /// budget. For any other tenant a single refusal is a failed run.
    pub hot: bool,
}

/// One tenant's client-observed outcomes and latency distribution.
#[derive(Clone, Serialize, Deserialize)]
pub struct TenantBenchRow {
    pub tenant: String,
    pub offered: u64,
    pub served: u64,
    /// Typed `Throttled` refusals (token bucket empty).
    pub throttled: u64,
    /// Typed `Overloaded` refusals (shared queue at capacity).
    pub overloaded: u64,
    /// Typed `Closed` refusals (queue draining).
    pub closed: u64,
    /// Other typed server errors (unknown shard, bad request).
    pub failed: u64,
    /// Socket-to-ticket round trip: how long admission took.
    pub ticket_p50_us: f64,
    pub ticket_p99_us: f64,
    pub ticket_max_us: f64,
    /// Socket-to-answer round trip: admission plus window wait plus
    /// execution.
    pub answer_p50_us: f64,
    pub answer_p99_us: f64,
    pub answer_max_us: f64,
}

/// Percentile over sorted client-side RTT samples, in µs (0 if empty).
/// Nearest-rank on the already-sorted slice.
pub fn rtt_pct_us(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * q).round() as usize;
    sorted_ns[idx] as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_over_sorted_samples() {
        assert_eq!(rtt_pct_us(&[], 0.5), 0.0);
        assert_eq!(rtt_pct_us(&[2_000], 0.99), 2.0);
        let xs: Vec<u64> = (1..=100).map(|i| i * 1_000).collect();
        assert_eq!(rtt_pct_us(&xs, 0.0), 1.0);
        assert_eq!(rtt_pct_us(&xs, 1.0), 100.0);
        assert_eq!(rtt_pct_us(&xs, 0.5), 51.0, "nearest rank, not interp");
    }

    #[test]
    fn artifact_roundtrips_and_configs_compare() {
        let report = BenchServerReport {
            config: BenchServerConfig {
                tenants: vec![TenantWorkloadSpec {
                    name: "hot".into(),
                    offered: 40,
                    hot: true,
                }],
                seed: 99,
                quick: true,
            },
            tenants: vec![TenantBenchRow {
                tenant: "hot".into(),
                offered: 40,
                served: 8,
                throttled: 32,
                overloaded: 0,
                closed: 0,
                failed: 0,
                ticket_p50_us: 10.0,
                ticket_p99_us: 20.0,
                ticket_max_us: 30.0,
                answer_p50_us: 100.0,
                answer_p99_us: 200.0,
                answer_max_us: 300.0,
            }],
        };
        let json = serde_json::to_string(&report).unwrap();
        let back: BenchServerReport = serde_json::from_str(&json).unwrap();
        assert!(back.config == report.config);
        assert_eq!(back.tenant("hot").unwrap().throttled, 32);
        assert!(back.tenant("cold").is_none());
        let mut other = report.config.clone();
        other.seed = 7;
        assert!(other != report.config, "seed is part of the workload");
    }

    fn row(tenant: &str, served: u64, throttled: u64) -> TenantBenchRow {
        TenantBenchRow {
            tenant: tenant.into(),
            offered: served + throttled,
            served,
            throttled,
            overloaded: 0,
            closed: 0,
            failed: 0,
            ticket_p50_us: 10.0,
            ticket_p99_us: 20.0,
            ticket_max_us: 30.0,
            answer_p50_us: 100.0,
            answer_p99_us: 200.0,
            answer_max_us: 300.0,
        }
    }

    fn report(rows: Vec<TenantBenchRow>) -> BenchServerReport {
        let spec = |name: &str, hot: bool| TenantWorkloadSpec {
            name: name.into(),
            offered: if hot { 40 } else { 12 },
            hot,
        };
        BenchServerReport {
            config: BenchServerConfig {
                tenants: vec![spec("hot", true), spec("tenant-a", false)],
                seed: 99,
                quick: true,
            },
            tenants: rows,
        }
    }

    #[test]
    fn a_healthy_run_has_no_violations_and_exact_counts() {
        let healthy = report(vec![row("hot", 8, 32), row("tenant-a", 12, 0)]);
        assert!(healthy.violations().is_empty());
        let metrics = healthy.metrics();
        let exact = |key: &str| {
            let m = metrics.iter().find(|m| m.key == key).unwrap();
            assert_eq!(m.class, crate::gate::Class::Exact, "{key}");
            m.value
        };
        assert_eq!(exact("server.hot.throttled"), 32.0);
        assert_eq!(exact("server.tenant-a.served"), 12.0);
        assert_eq!(metrics.len(), 8, "four rows per tenant");
    }

    #[test]
    fn violations_name_the_tenant() {
        let starved = report(vec![row("hot", 8, 32), row("tenant-a", 4, 8)]);
        assert_eq!(
            starved.violations(),
            [
                "compliant tenant tenant-a was throttled 8 time(s)",
                "compliant tenant tenant-a was served 4/12",
            ]
        );
        let lost = report(vec![row("hot", 8, 31)]);
        let violations = lost.violations();
        assert_eq!(violations[0], "tenant hot: outcomes sum to 39, offered 40");
        assert_eq!(violations[1], "tenant tenant-a has no row");
        let mut shed = report(vec![row("hot", 7, 32), row("tenant-a", 12, 0)]);
        shed.tenants[0].overloaded = 1;
        assert_eq!(
            shed.violations(),
            ["tenant hot saw 1 overloaded / 0 closed / 0 failed"]
        );
    }
}
