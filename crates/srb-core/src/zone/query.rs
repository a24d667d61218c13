//! Remote-zone query routing.
//!
//! A [`FedConnection`] bundles one ordinary [`SrbConnection`] per
//! reachable zone — the *home* zone's connection is mandatory, peers are
//! best-effort (a zone that doesn't know the user is simply not queried).
//! Queries fan out to every reachable peer through the PR-3 fan-out
//! engine, each remote leg paying its peering-link round trip (and
//! drawing from the link's fault plan), and hits come back tagged with
//! the zone they live in, merged in a deterministic `(path, zone)` order.
//!
//! Pagination stays O(page) across zones with a composite cursor
//! `z<zone-index>:<inner-token>`: zones are walked in index order, each
//! delegating to its own resumable catalog cursor, so no zone ever
//! materializes more than one page.

use crate::fanout::{run_legs, FanoutMode};
use crate::zone::federation::{Federation, ZoneId};
use crate::SrbConnection;
use srb_mcat::{Query, QueryHit};
use srb_net::Receipt;
use srb_obs::metric;
use srb_types::{SrbError, SrbResult};

/// A query hit tagged with the zone whose catalog produced it.
#[derive(Debug, Clone)]
pub struct ZoneHit {
    /// Name of the zone the hit lives in.
    pub zone: String,
    /// The underlying catalog hit.
    pub hit: QueryHit,
}

/// A federated session: one authenticated connection per zone that
/// recognizes the user, anchored at a home zone.
pub struct FedConnection<'f> {
    fed: &'f Federation,
    home: usize,
    /// Indexed by zone index; `None` where sign-on failed (unknown user).
    conns: Vec<Option<SrbConnection<'f>>>,
}

impl Federation {
    /// Sign on at `home` and opportunistically at every peer zone.
    ///
    /// The home sign-on must succeed; peers that reject the credentials
    /// (federated zones manage users autonomously) are skipped and simply
    /// never queried.
    pub fn connect(
        &self,
        home: ZoneId,
        name: &str,
        domain: &str,
        password: &str,
    ) -> SrbResult<FedConnection<'_>> {
        self.zone(home)?;
        let mut conns = Vec::new();
        for (zid, zone) in self.zones() {
            let conn = SrbConnection::connect(&zone.grid, zone.contact(), name, domain, password);
            match conn {
                Ok(c) => conns.push(Some(c)),
                Err(_) if zid != home => conns.push(None),
                Err(e) => return Err(e),
            }
        }
        Ok(FedConnection {
            fed: self,
            home: home.0,
            conns,
        })
    }
}

impl<'f> FedConnection<'f> {
    /// The home zone.
    pub fn home(&self) -> ZoneId {
        ZoneId(self.home)
    }

    /// The home zone's plain connection, for non-federated operations.
    pub fn home_conn(&self) -> &SrbConnection<'f> {
        // The constructor guarantees the home slot is always populated.
        match &self.conns[self.home] {
            Some(c) => c,
            None => unreachable!("home connection is mandatory"),
        }
    }

    /// Zone indexes this connection can currently query: the home zone
    /// plus signed-on peers whose link from home is up. Always ascending —
    /// the `z<zone>:` pagination cursor locates its leg (and skips past a
    /// stale one) by ordered comparison, which a home-first order would
    /// break whenever home's index exceeds a peer's.
    fn legs(&self) -> Vec<usize> {
        (0..self.conns.len())
            .filter(|&i| {
                i == self.home
                    || (self.conns[i].is_some() && self.fed.link_up(ZoneId(self.home), ZoneId(i)))
            })
            .collect()
    }

    /// Run a conjunctive query against every reachable zone in parallel.
    ///
    /// Remote legs pay their peering-link round trip and draw from the
    /// link's fault plan; a leg that faults mid-query is dropped (its
    /// zone contributes no hits) rather than failing the whole query.
    /// Hits are merged in deterministic `(path, zone)` order; receipts
    /// max-compose across legs as parallel work.
    pub fn query(&self, q: &Query) -> SrbResult<(Vec<ZoneHit>, Receipt)> {
        let legs = self.legs();
        let fed = self.fed;
        let home = self.home;
        self.fed
            .metrics()
            .counter(metric!("zone.query_legs"), "")
            .add(legs.len() as u64);
        let results: Vec<SrbResult<(usize, Vec<QueryHit>, Receipt)>> =
            run_legs(FanoutMode::Parallel, legs.len(), |i| {
                let z = legs[i];
                let link_ns = if z == home {
                    0
                } else {
                    fed.charge_link_rpc(home, z)?
                };
                let conn = self.conns[z]
                    .as_ref()
                    .ok_or_else(|| SrbError::Internal("leg without connection".into()))?;
                let (hits, mut receipt) = conn.query(q)?;
                receipt.absorb(&Receipt::time(link_ns));
                Ok((z, hits, receipt))
            });
        let mut merged = Vec::new();
        let mut receipt = Receipt::free();
        for (leg_no, res) in results.into_iter().enumerate() {
            match res {
                Ok((z, hits, r)) => {
                    receipt.join_parallel(&r);
                    let zone = fed.zone(ZoneId(z))?.name().to_string();
                    merged.extend(hits.into_iter().map(|hit| ZoneHit {
                        zone: zone.clone(),
                        hit,
                    }));
                }
                Err(e) if legs[leg_no] == home => return Err(e),
                Err(_) => {
                    fed.metrics()
                        .counter(metric!("zone.query_leg_failures"), "")
                        .inc();
                }
            }
        }
        merged.sort_by(|a, b| (&a.hit.path, &a.zone).cmp(&(&b.hit.path, &b.zone)));
        Ok((merged, receipt))
    }

    /// One page of federated query results.
    ///
    /// Zones are visited sequentially in index order (home's position
    /// included), each through its own resumable cursor, so the composite
    /// token `z<zone>:<inner>` resumes exactly where the last page
    /// stopped — in the middle of a zone or at the boundary to the next.
    /// Per-zone pages shortened by permission filtering are topped up
    /// from the same zone before moving on.
    pub fn query_page(
        &self,
        q: &Query,
        token: Option<&str>,
        page: usize,
    ) -> SrbResult<(Vec<ZoneHit>, Option<String>, Receipt)> {
        if page == 0 {
            return Err(SrbError::Invalid("page size must be positive".into()));
        }
        let legs = self.legs();
        let (start_zone, mut inner): (usize, Option<String>) = match token {
            None => (legs.first().copied().unwrap_or(self.home), None),
            Some(t) => parse_token(t)?,
        };
        let fed = self.fed;
        let mut out = Vec::new();
        let mut receipt = Receipt::free();
        let mut pos = legs
            .iter()
            .position(|&z| z >= start_zone)
            .unwrap_or(legs.len());
        // A stale token can point at a zone that has since dropped off the
        // reachable list; resuming at the next reachable zone is the same
        // contract a single-zone cursor offers after catalog drift. The
        // inner token belongs to the dropped zone's cursor, so it must not
        // be replayed against the zone we land on instead.
        if legs.get(pos) != Some(&start_zone) {
            inner = None;
        }
        while pos < legs.len() {
            let z = legs[pos];
            let conn = match self.conns[z].as_ref() {
                Some(c) => c,
                None => {
                    pos += 1;
                    inner = None;
                    continue;
                }
            };
            if z != self.home {
                match fed.charge_link_rpc(self.home, z) {
                    Ok(ns) => receipt.absorb(&Receipt::time(ns)),
                    Err(_) => {
                        fed.metrics()
                            .counter(metric!("zone.query_leg_failures"), "")
                            .inc();
                        pos += 1;
                        inner = None;
                        continue;
                    }
                }
            }
            let zone = fed.zone(ZoneId(z))?.name().to_string();
            while out.len() < page {
                let want = page - out.len();
                let (hits, next, r) = conn.query_page(q, inner.as_deref(), want)?;
                receipt.absorb(&r);
                out.extend(hits.into_iter().map(|hit| ZoneHit {
                    zone: zone.clone(),
                    hit,
                }));
                inner = next;
                if inner.is_none() {
                    break;
                }
            }
            if out.len() >= page {
                let next = match &inner {
                    Some(t) => Some(format!("z{z}:{t}")),
                    None => legs.get(pos + 1).map(|&nz| format!("z{nz}:")),
                };
                return Ok((out, next, receipt));
            }
            pos += 1;
            inner = None;
        }
        Ok((out, None, receipt))
    }
}

/// Split a composite `z<zone>:<inner>` cursor token.
fn parse_token(t: &str) -> SrbResult<(usize, Option<String>)> {
    let rest = t
        .strip_prefix('z')
        .ok_or_else(|| SrbError::Invalid(format!("bad federated cursor: {t}")))?;
    let (zone, inner) = rest
        .split_once(':')
        .ok_or_else(|| SrbError::Invalid(format!("bad federated cursor: {t}")))?;
    let zone: usize = zone
        .parse()
        .map_err(|_| SrbError::Invalid(format!("bad federated cursor: {t}")))?;
    let inner = if inner.is_empty() {
        None
    } else {
        Some(inner.to_string())
    };
    Ok((zone, inner))
}
