//! URL driver — registered web objects.
//!
//! Paper §4, object type 4: "The user can specify any URL including ftp
//! calls and cgi queries. On retrieval, the contents of the URL are
//! retrieved and displayed. The contents of the URL are not stored in the
//! SRB on registration."
//!
//! The driver maps URLs to *providers*: static content, or a generator
//! function invoked per fetch (modelling CGI — content can change between
//! accesses). Fetches pay a WAN-like cost.

use bytes::Bytes;
use srb_types::sync::{LockRank, RwLock};
use srb_types::{SrbError, SrbResult};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Content source behind a URL.
pub enum UrlProvider {
    /// Fixed content.
    Static(Bytes),
    /// Generator invoked at each fetch (CGI-style); receives the fetch
    /// sequence number.
    Dynamic(Box<dyn Fn(u64) -> Vec<u8> + Send + Sync>),
}

/// Registry of reachable URLs, playing the role of "the web".
pub struct UrlDriver {
    providers: RwLock<HashMap<String, UrlProvider>>,
    fetches: AtomicU64,
    /// Fixed fetch latency (defaults to a WAN round trip, 60 ms).
    fetch_latency_ns: u64,
    /// Transfer rate in MB/s (defaults to 5 MB/s).
    mbps: f64,
}

impl Default for UrlDriver {
    fn default() -> Self {
        UrlDriver::new()
    }
}

impl UrlDriver {
    /// Default web model: 60 ms RTT, 5 MB/s.
    pub fn new() -> Self {
        UrlDriver {
            providers: RwLock::new(LockRank::Storage, "storage.url.providers", HashMap::new()),
            fetches: AtomicU64::new(0),
            fetch_latency_ns: 60_000_000,
            mbps: 5.0,
        }
    }

    /// Host static content at a URL.
    pub fn host_static(&self, url: &str, content: impl Into<Bytes>) {
        self.providers
            .write()
            .insert(url.to_string(), UrlProvider::Static(content.into()));
    }

    /// Remove a URL from the simulated web (the origin went away).
    pub fn take_down(&self, url: &str) {
        self.providers.write().remove(url);
    }

    /// Fetch a URL's current content; returns (content, virtual cost).
    pub fn fetch(&self, url: &str) -> SrbResult<(Bytes, u64)> {
        let n = self.fetches.fetch_add(1, Ordering::Relaxed);
        let g = self.providers.read();
        let content = match g.get(url) {
            Some(UrlProvider::Static(b)) => b.clone(),
            Some(UrlProvider::Dynamic(f)) => Bytes::from(f(n)),
            None => {
                return Err(SrbError::NotFound(format!("URL '{url}' unreachable")));
            }
        };
        let cost =
            self.fetch_latency_ns + (content.len() as f64 / (self.mbps * 1_000_000.0) * 1e9) as u64;
        Ok((content, cost))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_url_round_trip() {
        let web = UrlDriver::new();
        web.host_static("http://knb.ecoinformatics.org/", &b"<html>KNB</html>"[..]);
        let (content, cost) = web.fetch("http://knb.ecoinformatics.org/").unwrap();
        assert_eq!(&content[..], b"<html>KNB</html>");
        assert!(cost >= 60_000_000);
    }

    #[test]
    fn dynamic_url_changes_between_fetches() {
        let web = UrlDriver::new();
        web.providers.write().insert(
            "http://example.org/cgi?count".to_string(),
            UrlProvider::Dynamic(Box::new(|n| format!("fetch #{n}").into_bytes())),
        );
        let (a, _) = web.fetch("http://example.org/cgi?count").unwrap();
        let (b, _) = web.fetch("http://example.org/cgi?count").unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn missing_url_is_not_found() {
        let web = UrlDriver::new();
        assert!(matches!(
            web.fetch("http://gone.example/"),
            Err(SrbError::NotFound(_))
        ));
        assert!(!web.providers.read().contains_key("http://gone.example/"));
    }

    #[test]
    fn take_down_makes_url_unreachable() {
        let web = UrlDriver::new();
        web.host_static("http://x/", &b"up"[..]);
        assert!(web.providers.read().contains_key("http://x/"));
        web.take_down("http://x/");
        assert!(web.fetch("http://x/").is_err());
    }

    #[test]
    fn fetch_count_tracks_all_attempts() {
        let web = UrlDriver::new();
        web.host_static("http://x/", &b"up"[..]);
        web.fetch("http://x/").unwrap();
        let _ = web.fetch("http://missing/");
        assert_eq!(web.fetches.load(Ordering::Relaxed), 2);
    }
}
