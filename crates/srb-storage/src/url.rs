//! URL driver — registered web objects.
//!
//! Paper §4, object type 4: "The user can specify any URL including ftp
//! calls and cgi queries. On retrieval, the contents of the URL are
//! retrieved and displayed. The contents of the URL are not stored in the
//! SRB on registration."
//!
//! The driver maps URLs to the content they serve. Fetches pay a WAN-like
//! cost.

use bytes::Bytes;
use srb_types::sync::{LockRank, RwLock};
use srb_types::{SrbError, SrbResult};
use std::collections::HashMap;

/// Registry of reachable URLs, playing the role of "the web".
pub struct UrlDriver {
    providers: RwLock<HashMap<String, Bytes>>,
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
            fetch_latency_ns: 60_000_000,
            mbps: 5.0,
        }
    }

    /// Host static content at a URL.
    pub fn host_static(&self, url: &str, content: impl Into<Bytes>) {
        self.providers
            .write()
            .insert(url.to_string(), content.into());
    }

    /// Remove a URL from the simulated web (the origin went away).
    pub fn take_down(&self, url: &str) {
        self.providers.write().remove(url);
    }

    /// Fetch a URL's current content; returns (content, virtual cost).
    pub fn fetch(&self, url: &str) -> SrbResult<(Bytes, u64)> {
        let content = self
            .providers
            .read()
            .get(url)
            .cloned()
            .ok_or_else(|| SrbError::NotFound(format!("URL '{url}' unreachable")))?;
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
}
