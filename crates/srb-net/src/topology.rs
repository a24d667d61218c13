//! Site/link topology and the analytic transfer-cost model.

use serde::{Deserialize, Serialize};
use srb_types::{SiteId, SrbError, SrbResult};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Characteristics of one directed link between two sites.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkSpec {
    /// One-way propagation latency in microseconds.
    pub latency_us: u64,
    /// Sustained bandwidth in megabytes per second.
    pub bandwidth_mbps: f64,
}

impl LinkSpec {
    /// A typical early-2000s transcontinental WAN link (~30 ms, 10 MB/s).
    pub fn wan() -> Self {
        LinkSpec {
            latency_us: 30_000,
            bandwidth_mbps: 10.0,
        }
    }

    /// A metro/regional link (~2 ms, 40 MB/s).
    pub fn metro() -> Self {
        LinkSpec {
            latency_us: 2_000,
            bandwidth_mbps: 40.0,
        }
    }

    /// A site-local LAN (~0.1 ms, 100 MB/s).
    pub fn lan() -> Self {
        LinkSpec {
            latency_us: 100,
            bandwidth_mbps: 100.0,
        }
    }

    /// Cost in nanoseconds to move `bytes` across this link, including one
    /// propagation delay.
    pub fn transfer_ns(&self, bytes: u64) -> u64 {
        let serial_ns = if self.bandwidth_mbps > 0.0 {
            (bytes as f64 / (self.bandwidth_mbps * 1_000_000.0) * 1e9) as u64
        } else {
            0
        };
        self.latency_us * 1_000 + serial_ns
    }
}

/// A route between two sites: the per-hop links along the cheapest path.
#[derive(Debug, Clone, PartialEq)]
pub struct Route {
    /// Sites visited, source first, destination last.
    pub hops: Vec<SiteId>,
    /// The links traversed (`hops.len() - 1` entries).
    pub links: Vec<LinkSpec>,
}

impl Route {
    /// Cost in nanoseconds to push `bytes` along the whole route.
    ///
    /// Store-and-forward model: each hop pays full latency plus
    /// serialization; this keeps multi-hop strictly worse than direct,
    /// which is the property experiment E4 measures.
    pub fn transfer_ns(&self, bytes: u64) -> u64 {
        self.links.iter().map(|l| l.transfer_ns(bytes)).sum()
    }

    /// Round-trip cost of a small control message (request + reply).
    pub(crate) fn rpc_ns(&self) -> u64 {
        2 * self.transfer_ns(RPC_MESSAGE_BYTES)
    }
}

/// Nominal size of a control message (headers + marshalled call).
pub const RPC_MESSAGE_BYTES: u64 = 512;

/// Builder for a [`Network`].
#[derive(Debug, Default)]
pub struct NetworkBuilder {
    names: Vec<String>,
    links: HashMap<(SiteId, SiteId), LinkSpec>,
    default_link: Option<LinkSpec>,
}

impl NetworkBuilder {
    /// Start an empty topology.
    pub fn new() -> Self {
        NetworkBuilder::default()
    }

    /// Register a site and get its id (ids are dense, starting at 0).
    pub fn site(&mut self, name: &str) -> SiteId {
        let id = SiteId(self.names.len() as u64);
        self.names.push(name.to_string());
        id
    }

    /// Add a symmetric link between two sites.
    pub fn link(&mut self, a: SiteId, b: SiteId, spec: LinkSpec) -> &mut Self {
        self.links.insert((a, b), spec);
        self.links.insert((b, a), spec);
        self
    }

    /// Use `spec` for any site pair without an explicit link, making the
    /// topology fully connected.
    pub fn default_link(&mut self, spec: LinkSpec) -> &mut Self {
        self.default_link = Some(spec);
        self
    }

    /// Finish: every site pair's cheapest route is computed here, once.
    pub fn build(self) -> Network {
        let n = self.names.len();
        let mut routes = Vec::with_capacity(n * n);
        for from in 0..n {
            routes.extend(self.routes_from(from));
        }
        Network {
            names: self.names,
            routes,
            messages: AtomicU64::new(0),
            bytes_moved: AtomicU64::new(0),
        }
    }

    fn link_between(&self, from: usize, to: usize) -> Option<LinkSpec> {
        self.links
            .get(&(SiteId(from as u64), SiteId(to as u64)))
            .copied()
            .or(self.default_link)
    }

    /// Cheapest routes from one site to every site, in site order
    /// (Dijkstra on 1 KiB transfer cost, so low-latency paths win even if
    /// a long path has more bandwidth); `None` where disconnected. Sites
    /// settle in (cost, id) order and an equal-cost path never replaces
    /// the first one found, so each route is the one a search for that
    /// pair alone would return.
    fn routes_from(&self, from: usize) -> Vec<Option<Route>> {
        let n = self.names.len();
        let metric = |l: &LinkSpec| l.transfer_ns(1024);
        let mut dist: Vec<u64> = vec![u64::MAX; n];
        let mut prev: Vec<Option<(usize, LinkSpec)>> = vec![None; n];
        let mut visited = vec![false; n];
        dist[from] = 0;
        for _ in 0..n {
            let mut u = usize::MAX;
            let mut best = u64::MAX;
            for (i, (&d, &v)) in dist.iter().zip(visited.iter()).enumerate() {
                if !v && d < best {
                    best = d;
                    u = i;
                }
            }
            if u == usize::MAX {
                break;
            }
            visited[u] = true;
            for v in (0..n).filter(|&v| v != u) {
                let Some(l) = self.link_between(u, v) else {
                    continue;
                };
                let nd = dist[u].saturating_add(metric(&l));
                if nd < dist[v] {
                    dist[v] = nd;
                    prev[v] = Some((u, l));
                }
            }
        }
        (0..n)
            .map(|to| {
                if dist[to] == u64::MAX {
                    return None;
                }
                let mut hops = vec![SiteId(to as u64)];
                let mut links = Vec::new();
                let mut cur = to;
                while let Some((p, l)) = prev[cur] {
                    links.push(l);
                    hops.push(SiteId(p as u64));
                    cur = p;
                }
                hops.reverse();
                links.reverse();
                Some(Route { hops, links })
            })
            .collect()
    }
}

/// The site graph plus traffic counters.
///
/// Thread-safe without locks: the route table is fixed at build and only
/// read; counters are atomics so concurrent client pools can charge
/// traffic without contention.
#[derive(Debug)]
pub struct Network {
    names: Vec<String>,
    /// `routes[from * n + to]`, `None` where the sites are disconnected.
    routes: Vec<Option<Route>>,
    messages: AtomicU64,
    bytes_moved: AtomicU64,
}

impl Network {
    /// Site display name.
    pub fn site_name(&self, s: SiteId) -> &str {
        self.names
            .get(s.raw() as usize)
            .map(|n| n.as_str())
            .unwrap_or("?")
    }

    /// Cheapest route between two sites (Dijkstra on 1 KiB transfer cost,
    /// computed at build); a site's route to itself has no links.
    ///
    /// Errors when either site is not in the network or the sites are
    /// disconnected.
    pub fn route(&self, from: SiteId, to: SiteId) -> SrbResult<&Route> {
        let n = self.names.len();
        let (f, t) = (from.raw() as usize, to.raw() as usize);
        if f >= n || t >= n {
            return Err(SrbError::NotFound(format!(
                "site {from} or {to} not in network"
            )));
        }
        self.routes[f * n + t].as_ref().ok_or_else(|| {
            SrbError::ResourceUnavailable(format!(
                "no route from {} to {}",
                self.site_name(from),
                self.site_name(to)
            ))
        })
    }

    /// Charge a transfer of `bytes` from `from` to `to`; returns the cost in
    /// nanoseconds and updates the traffic counters.
    pub fn charge_transfer(&self, from: SiteId, to: SiteId, bytes: u64) -> SrbResult<u64> {
        let route = self.route(from, to)?;
        self.messages.fetch_add(1, Ordering::Relaxed);
        self.bytes_moved.fetch_add(bytes, Ordering::Relaxed);
        Ok(route.transfer_ns(bytes))
    }

    /// Charge one control-message round trip.
    pub fn charge_rpc(&self, from: SiteId, to: SiteId) -> SrbResult<u64> {
        let route = self.route(from, to)?;
        self.messages.fetch_add(2, Ordering::Relaxed);
        self.bytes_moved
            .fetch_add(2 * RPC_MESSAGE_BYTES, Ordering::Relaxed);
        Ok(route.rpc_ns())
    }

    /// Total messages charged so far.
    pub fn message_count(&self) -> u64 {
        self.messages.load(Ordering::Relaxed)
    }

    /// Total bytes charged so far.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_site() -> (Network, SiteId, SiteId, SiteId) {
        let mut b = NetworkBuilder::new();
        let sdsc = b.site("sdsc");
        let caltech = b.site("caltech");
        let ncsa = b.site("ncsa");
        b.link(sdsc, caltech, LinkSpec::metro());
        b.link(caltech, ncsa, LinkSpec::wan());
        (b.build(), sdsc, caltech, ncsa)
    }

    #[test]
    fn link_cost_model() {
        let l = LinkSpec {
            latency_us: 1_000,
            bandwidth_mbps: 10.0,
        };
        // 10 MB at 10 MB/s = 1 s + 1 ms latency.
        assert_eq!(l.transfer_ns(10_000_000), 1_000_000 + 1_000_000_000);
        // Zero bytes costs just the latency.
        assert_eq!(l.transfer_ns(0), 1_000_000);
    }

    #[test]
    fn local_route_is_free() {
        let mut b = NetworkBuilder::new();
        let s = b.site("local");
        let net = b.build();
        let r = net.route(s, s).unwrap();
        assert_eq!(r.links.len(), 0);
        assert_eq!(r.transfer_ns(1 << 20), 0);
        assert_eq!(r.rpc_ns(), 0);
    }

    #[test]
    fn multi_hop_route_found_when_no_direct_link() {
        let (net, sdsc, caltech, ncsa) = three_site();
        let r = net.route(sdsc, ncsa).unwrap();
        assert_eq!(r.hops, vec![sdsc, caltech, ncsa]);
        assert_eq!(r.links.len(), 2);
        // Cost is the sum of the two links.
        assert_eq!(
            r.transfer_ns(1024),
            LinkSpec::metro().transfer_ns(1024) + LinkSpec::wan().transfer_ns(1024)
        );
    }

    #[test]
    fn sites_outside_the_network_are_not_found() {
        let (net, sdsc, ..) = three_site();
        let ghost = SiteId(7);
        assert!(matches!(
            net.route(ghost, ghost),
            Err(SrbError::NotFound(_))
        ));
        assert!(matches!(net.route(sdsc, ghost), Err(SrbError::NotFound(_))));
    }

    #[test]
    fn disconnected_sites_error() {
        let mut b = NetworkBuilder::new();
        let a = b.site("a");
        let _ = b.site("island");
        let net = b.build();
        assert!(net.route(a, SiteId(1)).is_err());
    }

    #[test]
    fn default_link_makes_full_mesh() {
        let mut b = NetworkBuilder::new();
        let a = b.site("a");
        let c = b.site("c");
        b.default_link(LinkSpec::wan());
        let net = b.build();
        let r = net.route(a, c).unwrap();
        assert_eq!(r.links.len(), 1);
    }

    #[test]
    fn direct_beats_detour() {
        let mut b = NetworkBuilder::new();
        let a = b.site("a");
        let m = b.site("m");
        let z = b.site("z");
        b.link(a, z, LinkSpec::wan());
        b.link(a, m, LinkSpec::lan());
        b.link(m, z, LinkSpec::lan());
        let net = b.build();
        // Two LAN hops are cheaper than one WAN hop for small messages.
        let r = net.route(a, z).unwrap();
        assert_eq!(r.hops, vec![a, m, z]);
    }

    #[test]
    fn traffic_counters_accumulate() {
        let (net, sdsc, caltech, _) = three_site();
        net.charge_transfer(sdsc, caltech, 1000).unwrap();
        net.charge_rpc(sdsc, caltech).unwrap();
        assert_eq!(net.message_count(), 3);
        assert_eq!(net.bytes_moved(), 1000 + 2 * RPC_MESSAGE_BYTES);
    }

    #[test]
    fn route_cache_returns_same_route() {
        let (net, sdsc, _, ncsa) = three_site();
        let r1 = net.route(sdsc, ncsa).unwrap();
        let r2 = net.route(sdsc, ncsa).unwrap();
        // Both calls read the one table entry built with the network.
        assert!(std::ptr::eq(r1, r2));
    }

    #[test]
    fn charges_are_thread_safe() {
        let (net, sdsc, caltech, _) = three_site();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        net.charge_transfer(sdsc, caltech, 10).unwrap();
                    }
                });
            }
        });
        assert_eq!(net.message_count(), 400);
        assert_eq!(net.bytes_moved(), 4000);
    }
}
