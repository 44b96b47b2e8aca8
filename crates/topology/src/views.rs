//! Tenant topology views and tag-path verification.
//!
//! §6.1: the TopoCache can reveal *partial* topologies to applications,
//! and a *path verifier* checks application-supplied routes before they
//! enter the PathTable "to ensure that the application-generated routes
//! do not violate security policies". Both live here: a
//! [`TopologyView`] restricts which switches and hosts a tenant may use,
//! and [`trace_tag_path`] walks a tag path hop by hop against the real
//! topology, yielding the switches visited and the host reached.

use std::collections::HashSet;

use serde::{Deserialize, Serialize};

use dumbnet_types::{DumbNetError, HostId, Path, Result, SwitchId};

use crate::graph::{Attachment, Topology};

/// The outcome of walking a tag path through the topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathTrace {
    /// Switches visited, in order (one per consumed tag).
    pub switches: Vec<SwitchId>,
    /// The host the final tag delivers to, if any.
    pub delivered_to: Option<HostId>,
}

/// Walks `path` starting from `src`'s attachment switch, following each
/// port tag over up links, and reports where the packet goes.
///
/// This is the "Path Verify" operation of Table 2. ID-query tags are
/// permitted (they visit a switch without moving) so discovery probes can
/// be verified too.
///
/// # Errors
///
/// Returns [`DumbNetError::PathRejected`] when a tag names an unwired or
/// down port, and propagates unknown-host errors.
pub fn trace_tag_path(topo: &Topology, src: HostId, path: &Path) -> Result<PathTrace> {
    let src_info = topo.host(src)?;
    let mut cur = src_info.attached.switch;
    let mut switches = Vec::with_capacity(path.len());
    let mut delivered_to = None;
    for (ix, &tag) in path.tags().iter().enumerate() {
        switches.push(cur);
        if tag.is_id_query() {
            // The switch answers and consumes the tag without moving.
            continue;
        }
        let port = tag
            .as_port()
            .ok_or_else(|| DumbNetError::PathRejected(format!("tag #{ix} is not a port tag")))?;
        let info = topo.switch(cur)?;
        match info.attachment(port) {
            Some(Attachment::Link(lid)) => {
                let link = topo.link(lid)?;
                if !link.up {
                    return Err(DumbNetError::PathRejected(format!(
                        "tag #{ix}: link {} is down",
                        link.id
                    )));
                }
                let (_, remote) = link
                    .from_switch(cur)
                    .ok_or_else(|| DumbNetError::TopologyInvariant("bad link endpoints".into()))?;
                cur = remote.switch;
            }
            Some(Attachment::Host(h)) => {
                if ix + 1 != path.len() {
                    return Err(DumbNetError::PathRejected(format!(
                        "tag #{ix} delivers to {h} with {} tags left",
                        path.len() - ix - 1
                    )));
                }
                delivered_to = Some(h);
            }
            None => {
                return Err(DumbNetError::PathRejected(format!(
                    "tag #{ix}: port {cur}-{port} is unwired"
                )));
            }
        }
    }
    Ok(PathTrace {
        switches,
        delivered_to,
    })
}

/// A tenant's restricted view of the fabric (§6.1 network
/// virtualization): only the listed switches and hosts are usable.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TopologyView {
    /// Switches the tenant may traverse. Empty = all switches allowed.
    pub switches: HashSet<SwitchId>,
    /// Hosts the tenant may address. Empty = all hosts allowed.
    pub hosts: HashSet<HostId>,
}

impl TopologyView {
    /// A view restricted to the given switches and hosts.
    #[must_use]
    pub fn restricted<S, H>(switches: S, hosts: H) -> TopologyView
    where
        S: IntoIterator<Item = SwitchId>,
        H: IntoIterator<Item = HostId>,
    {
        TopologyView {
            switches: switches.into_iter().collect(),
            hosts: hosts.into_iter().collect(),
        }
    }

    /// Whether the view permits traversing a switch.
    #[must_use]
    pub fn permits_switch(&self, s: SwitchId) -> bool {
        self.switches.is_empty() || self.switches.contains(&s)
    }

    /// Whether the view permits addressing a host.
    #[must_use]
    pub fn permits_host(&self, h: HostId) -> bool {
        self.hosts.is_empty() || self.hosts.contains(&h)
    }

    /// Fully verifies a tag path for a tenant: traces it against the real
    /// topology, then checks every visited switch and the delivery host
    /// against the view.
    ///
    /// # Errors
    ///
    /// Returns [`DumbNetError::PathRejected`] when the path escapes the
    /// view, does not terminate at a permitted host, or fails tracing.
    pub fn verify_tag_path(&self, topo: &Topology, src: HostId, path: &Path) -> Result<PathTrace> {
        if !self.permits_host(src) {
            return Err(DumbNetError::PathRejected(format!(
                "source {src} outside tenant view"
            )));
        }
        let trace = trace_tag_path(topo, src, path)?;
        if let Some(bad) = trace.switches.iter().find(|&&s| !self.permits_switch(s)) {
            return Err(DumbNetError::PathRejected(format!(
                "switch {bad} outside tenant view"
            )));
        }
        match trace.delivered_to {
            Some(h) if self.permits_host(h) => Ok(trace),
            Some(h) => Err(DumbNetError::PathRejected(format!(
                "destination {h} outside tenant view"
            ))),
            None => Err(DumbNetError::PathRejected(
                "path does not deliver to a host".into(),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::spath;
    use dumbnet_types::Tag;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn testbed_path(src: u64, dst: u64) -> (Topology, Path) {
        let g = generators::testbed();
        let t = g.topology;
        let mut rng = StdRng::seed_from_u64(1);
        let (s, d) = (HostId(src), HostId(dst));
        let route = spath::shortest_route(
            &t,
            t.host(s).unwrap().attached.switch,
            t.host(d).unwrap().attached.switch,
            &mut rng,
        )
        .unwrap();
        let path = route.to_tag_path(&t, s, d).unwrap();
        (t, path)
    }

    #[test]
    fn trace_follows_correct_path() {
        let (t, path) = testbed_path(0, 26);
        let trace = trace_tag_path(&t, HostId(0), &path).unwrap();
        assert_eq!(trace.delivered_to, Some(HostId(26)));
        assert_eq!(trace.switches.len(), 3); // leaf, spine, leaf.
    }

    #[test]
    fn trace_rejects_unwired_port() {
        let (t, _) = testbed_path(0, 26);
        // Port 60 on the first leaf is unwired in the testbed.
        let bogus = Path::from_ports([60]).unwrap();
        assert!(matches!(
            trace_tag_path(&t, HostId(0), &bogus),
            Err(DumbNetError::PathRejected(_))
        ));
    }

    #[test]
    fn trace_rejects_early_host_delivery() {
        let (t, path) = testbed_path(0, 1); // Same-leaf pair: 1 tag.
                                            // Append a junk tag after the delivering tag.
        let longer = path.push(Tag(1)).unwrap();
        assert!(trace_tag_path(&t, HostId(0), &longer).is_err());
    }

    #[test]
    fn trace_rejects_down_link() {
        let g = generators::testbed();
        let mut t = g.topology;
        let mut rng = StdRng::seed_from_u64(2);
        let route = spath::shortest_route(
            &t,
            t.host(HostId(0)).unwrap().attached.switch,
            t.host(HostId(26)).unwrap().attached.switch,
            &mut rng,
        )
        .unwrap();
        let path = route.to_tag_path(&t, HostId(0), HostId(26)).unwrap();
        let sw = route.switches();
        let lid = t.link_between(sw[0], sw[1]).unwrap().id;
        t.set_link_state(lid, false).unwrap();
        assert!(trace_tag_path(&t, HostId(0), &path).is_err());
    }

    #[test]
    fn id_query_tags_traced_in_place() {
        let g = generators::testbed();
        let t = g.topology;
        // 0-<host port>-ø: query own switch then bounce to a neighbor host.
        let h0 = t.host(HostId(0)).unwrap();
        let h1 = t.host(HostId(1)).unwrap();
        assert_eq!(h0.attached.switch, h1.attached.switch);
        let path = Path::from_tags([Tag::ID_QUERY, Tag(h1.attached.port.get())]).unwrap();
        let trace = trace_tag_path(&t, HostId(0), &path).unwrap();
        assert_eq!(trace.delivered_to, Some(HostId(1)));
        assert_eq!(trace.switches.len(), 2);
        assert_eq!(trace.switches[0], trace.switches[1]);
    }

    #[test]
    fn view_blocks_foreign_switches_and_hosts() {
        let (t, path) = testbed_path(0, 26);
        let trace = trace_tag_path(&t, HostId(0), &path).unwrap();
        // View missing the spine switch used by the path.
        let spine = trace.switches[1];
        let view = TopologyView::restricted(
            t.switches().map(|s| s.id).filter(|&s| s != spine),
            t.hosts().map(|h| h.id),
        );
        assert!(view.verify_tag_path(&t, HostId(0), &path).is_err());
        // View missing the destination host.
        let view = TopologyView::restricted(
            t.switches().map(|s| s.id),
            t.hosts().map(|h| h.id).filter(|&h| h != HostId(26)),
        );
        assert!(view.verify_tag_path(&t, HostId(0), &path).is_err());
        // Unrestricted passes.
        let trace = TopologyView::default()
            .verify_tag_path(&t, HostId(0), &path)
            .unwrap();
        assert_eq!(trace.delivered_to, Some(HostId(26)));
    }

    #[test]
    fn view_blocks_foreign_source() {
        let (t, path) = testbed_path(0, 26);
        let view = TopologyView::restricted(
            t.switches().map(|s| s.id),
            [HostId(26)], // Source 0 not included.
        );
        assert!(view.verify_tag_path(&t, HostId(0), &path).is_err());
    }
}
