//! AS-level BGP substrate for bdrmap.
//!
//! This crate models everything the paper takes from the interdomain
//! routing system:
//!
//! * [`graph::AsGraph`] — the AS-level topology annotated with
//!   customer-provider and peer-peer relationships (ground truth);
//! * [`origin::OriginTable`] — which AS originates which prefix, including
//!   multi-origin (MOAS) prefixes and selective advertisement scopes;
//! * [`propagate::RoutingOracle`] — Gao–Rexford valley-free route
//!   propagation producing, for every (AS, prefix) pair, the best
//!   next-hop AS, used by the data-plane simulator to forward packets;
//! * [`view::CollectorView`] — a Route Views / RIPE RIS style public view
//!   assembled from the best paths of a set of collector peers, with the
//!   realistic incompleteness bdrmap has to live with;
//! * [`relinfer`] — inference of c2p/p2p labels from the public view
//!   (a simplified form of Luckie et al., IMC 2013), which is the
//!   relationship input bdrmap actually consumes.

pub mod graph;
pub mod origin;
pub mod propagate;
pub mod relinfer;
pub mod view;

pub use graph::AsGraph;
pub use origin::{AdvertisementScope, OriginTable, Origination, OriginationId};
pub use propagate::{BestRoute, RouteClass, RouteTree, RoutingOracle};
pub use relinfer::InferredRelationships;
pub use view::CollectorView;
