//! Fabric routing: colors, per-PE routing rules, path resolution, and link
//! occupancy tracking.
//!
//! A **color** is a logical channel through the fabric (§2.1: "To route a
//! wavelet through the fabric, the programmer needs to define a logical
//! channel called *color*. There are 24 colors available in total."). For
//! every color each PE configures an input direction and output direction(s);
//! a stream injected on a color follows the configured directions hop by hop
//! until a PE routes it to its RAMP (delivery).

use crate::error::SimError;
use crate::geom::{Direction, PeId};
use crate::time::Time;

/// Number of routable colors on the CS-2 fabric.
pub const MAX_COLORS: u8 = 24;

/// Width of the dense per-PE color tables (`MAX_COLORS` as a `usize`).
/// Every hot-path structure keyed by color is a flat `[T; COLOR_SLOTS]`
/// (or a `Vec` chunked by `COLOR_SLOTS`) indexed with [`Color::index`].
pub const COLOR_SLOTS: usize = MAX_COLORS as usize;

/// Number of outgoing neighbor links per PE (N/S/E/W), the stride of the
/// dense link tables indexed by [`Direction::index`].
pub(crate) const LINK_SLOTS: usize = 4;

/// A logical fabric channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Color(u8);

impl Color {
    /// Create a color.
    ///
    /// # Panics
    /// If `id >= 24` — the CS-2 exposes 24 colors.
    #[must_use]
    pub const fn new(id: u8) -> Self {
        assert!(id < MAX_COLORS, "the fabric has 24 colors (ids 0..=23)");
        Self(id)
    }

    /// Raw color id.
    #[must_use]
    pub const fn id(self) -> u8 {
        self.0
    }

    /// Dense table index of this color (`0..COLOR_SLOTS`).
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for Color {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "color{}", self.0)
    }
}

/// Routing rule of one color at one PE: where wavelets of that color are
/// accepted from and where they are forwarded to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteRule {
    /// Accepted input direction (`None` = originates at this PE's RAMP).
    pub input: Option<Direction>,
    /// Output direction(s). `Ramp` in the set means "deliver to processor".
    pub outputs: Vec<Direction>,
}

/// One hop along a resolved color path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// PE the wavelets leave.
    pub from: PeId,
    /// PE the wavelets enter.
    pub to: PeId,
    /// Direction of travel (`from` → `to`), precomputed at resolution so the
    /// per-hop link-clock update never re-derives it from coordinates.
    pub dir: Direction,
}

/// The full path of a stream: zero or more hops then delivery at `dest`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedPath {
    /// Traversed links in order.
    pub hops: Vec<Hop>,
    /// PE whose RAMP receives the stream.
    pub dest: PeId,
}

/// A routing rule packed into one `u16` for the dense fabric table.
///
/// Bit layout: bit 15 = rule present; bits 0..=4 = output-direction mask in
/// [`Direction::index`] order (N, S, E, W, Ramp); bits 5..=7 = input code
/// (0 = originates at the RAMP, `1 + dir.index()` otherwise). One cache line
/// holds the full 24-color rule row of four PEs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct PackedRule(u16);

impl PackedRule {
    const PRESENT: u16 = 1 << 15;
    const NON_RAMP_MASK: u16 = 0b0_1111;

    fn pack(rule: &RouteRule) -> Self {
        let mut bits = Self::PRESENT;
        for &dir in &rule.outputs {
            bits |= 1 << dir.index();
        }
        let input_code = match rule.input {
            None => 0,
            Some(dir) => 1 + dir.index() as u16,
        };
        Self(bits | (input_code << 5))
    }

    pub(crate) fn present(self) -> bool {
        self.0 & Self::PRESENT != 0
    }

    /// Accepted input direction (`None` = originates at this PE's RAMP).
    pub(crate) fn input(self) -> Option<Direction> {
        match (self.0 >> 5) & 0b111 {
            0 => None,
            code => Some(Direction::from_index(code as usize - 1)),
        }
    }

    /// Whether `dir` is in the output set.
    pub(crate) fn has_output(self, dir: Direction) -> bool {
        self.0 & (1 << dir.index()) != 0
    }

    /// Reconstruct the declarative rule, outputs in N/S/E/W/Ramp order.
    fn unpack(self) -> RouteRule {
        let outputs = (0..=Direction::Ramp.index())
            .filter(|&i| self.0 & (1 << i) != 0)
            .map(Direction::from_index)
            .collect();
        RouteRule {
            input: self.input(),
            outputs,
        }
    }
}

/// The routing fabric: per-(PE, color) rules plus per-link busy bookkeeping.
///
/// Both tables are flat row-major vectors — `rules` strided by
/// [`COLOR_SLOTS`] per PE, `link_free_at` strided by the four outgoing links
/// (N/S/E/W, indexed by [`Direction::index`]) per PE —
/// so the hot path of `resolve_path` / `schedule_stream` is pure index
/// arithmetic with no hashing.
#[derive(Debug, Default)]
pub struct Fabric {
    /// `rules[pe.index(cols) * COLOR_SLOTS + color.index()]`.
    rules: Vec<PackedRule>,
    /// `link_free_at[pe.index(cols) * LINK_SLOTS + dir.index()]`: earliest
    /// instant the outgoing link of `pe` toward `dir` accepts a new stream.
    link_free_at: Vec<Time>,
    rows: usize,
    cols: usize,
}

impl Fabric {
    /// Create a fabric for a `rows × cols` mesh.
    #[must_use]
    pub fn new(rows: usize, cols: usize) -> Self {
        Self {
            rules: vec![PackedRule::default(); rows * cols * COLOR_SLOTS],
            link_free_at: vec![Time::ZERO; rows * cols * LINK_SLOTS],
            rows,
            cols,
        }
    }

    fn rule_slot(&self, pe: PeId, color: Color) -> usize {
        pe.index(self.cols) * COLOR_SLOTS + color.index()
    }

    fn on_mesh(&self, pe: PeId) -> bool {
        pe.row < self.rows && pe.col < self.cols
    }

    /// Install a routing rule.
    ///
    /// # Panics
    /// If `pe` is outside the mesh — a rule there could never fire.
    pub fn set_rule(&mut self, pe: PeId, color: Color, rule: RouteRule) {
        assert!(
            self.on_mesh(pe),
            "routing rule installed at off-mesh {pe} on a {}x{} mesh",
            self.rows,
            self.cols
        );
        let slot = self.rule_slot(pe, color);
        self.rules[slot] = PackedRule::pack(&rule);
    }

    /// Look up a rule, reconstructed from the packed table (outputs in
    /// N/S/E/W/Ramp order).
    #[must_use]
    pub fn rule(&self, pe: PeId, color: Color) -> Option<RouteRule> {
        if !self.on_mesh(pe) {
            return None;
        }
        let packed = self.rules[self.rule_slot(pe, color)];
        packed.present().then(|| packed.unpack())
    }

    /// Iterate over every installed rule in (row-major PE, color) order.
    /// Used by the sharded engine to discover which mesh rows are coupled by
    /// vertical routes.
    pub(crate) fn rules_iter(&self) -> impl Iterator<Item = (PeId, PackedRule)> + '_ {
        self.rules
            .iter()
            .enumerate()
            .filter(|(_, packed)| packed.present())
            .map(|(slot, &packed)| {
                let pe_index = slot / COLOR_SLOTS;
                (
                    PeId::new(pe_index / self.cols, pe_index % self.cols),
                    packed,
                )
            })
    }

    /// Resolve the path of a stream injected at `src` on `color`.
    ///
    /// `from` is the direction the stream arrives from at `src` (`None` when
    /// it originates at `src`'s RAMP). Follows output directions until a PE
    /// whose rule includes `Ramp`; that PE is the destination. Multicast
    /// (more than one non-RAMP output) is not supported by this simulator —
    /// the CereSZ mapping never needs it, PEs relay explicitly instead.
    pub fn resolve_path(
        &self,
        src: PeId,
        color: Color,
        from: Option<Direction>,
    ) -> Result<ResolvedPath, SimError> {
        let mut hops = Vec::new();
        let mut cur = src;
        let mut arrived_from = from;
        // A path can be at most rows*cols hops in a sane configuration.
        let max_hops = self.rows * self.cols + 1;
        for _ in 0..max_hops {
            if !self.on_mesh(cur) {
                return Err(SimError::NoRoute { pe: cur, color });
            }
            let rule = self.rules[self.rule_slot(cur, color)];
            if !rule.present() {
                return Err(SimError::NoRoute { pe: cur, color });
            }
            if rule.input() != arrived_from {
                return Err(SimError::RouteMismatch { pe: cur, color });
            }
            if rule.has_output(Direction::Ramp) {
                return Ok(ResolvedPath { hops, dest: cur });
            }
            let non_ramp = rule.0 & PackedRule::NON_RAMP_MASK;
            if non_ramp == 0 {
                return Err(SimError::NoRoute { pe: cur, color });
            }
            if non_ramp.count_ones() > 1 {
                return Err(SimError::MulticastUnsupported { pe: cur, color });
            }
            let dir = Direction::from_index(non_ramp.trailing_zeros() as usize);
            let next = cur
                .neighbor(dir, self.rows, self.cols)
                .ok_or(SimError::RouteOffMesh { pe: cur, color })?;
            hops.push(Hop {
                from: cur,
                to: next,
                dir,
            });
            arrived_from = Some(dir.opposite());
            cur = next;
        }
        Err(SimError::RoutingLoop { pe: src, color })
    }

    /// Schedule a stream of `n` wavelets along `path` starting at `start`.
    ///
    /// Returns `(src_done, delivered)`: the instant the last wavelet leaves
    /// the source, and the instant the last wavelet reaches the destination
    /// RAMP. Links are occupied for `n` cycles each with 1 cycle latency per
    /// hop; contention with earlier streams delays the start on each link.
    pub fn schedule_stream(&mut self, path: &ResolvedPath, n: usize, start: Time) -> (Time, Time) {
        let n = Time::from_cycles(n as u64);
        let one = Time::from_cycles(1);
        let mut head = start; // when the first wavelet can enter the next link
        let cols = self.cols;
        for hop in &path.hops {
            let slot = &mut self.link_free_at[hop.from.index(cols) * LINK_SLOTS + hop.dir.index()];
            let link_start = head.max(*slot);
            *slot = link_start + n;
            head = link_start + one; // per-hop latency for the head wavelet
        }
        let src_done = start + n;
        let delivered = head + n; // last wavelet arrives n cycles after head
        (src_done, delivered.max(src_done))
    }

    /// Send-origin PEs (rules with `input: None`) whose resolved route on
    /// `color` delivers to `dest`'s RAMP, in row-major order. Used to attach
    /// static routing context to deadlock diagnostics: these are the only
    /// fabric senders that could ever satisfy a receive at `dest`.
    #[must_use]
    pub fn origins_reaching(&self, dest: PeId, color: Color) -> Vec<PeId> {
        // Scanning the dense table in PE-index order yields row-major order
        // directly — no sort needed.
        (0..self.rows * self.cols)
            .filter_map(|pe_index| {
                let rule = self.rules[pe_index * COLOR_SLOTS + color.index()];
                if !rule.present() || rule.input().is_some() {
                    return None;
                }
                let pe = PeId::new(pe_index / self.cols, pe_index % self.cols);
                let path = self.resolve_path(pe, color, None).ok()?;
                (path.dest == dest).then_some(pe)
            })
            .collect()
    }

    /// Convenience: install an eastward chain of a color from `start_col` to
    /// `end_col` (inclusive) in `row`, delivering at `end_col`'s RAMP.
    ///
    /// PEs strictly between origin and destination forward W→E; the origin
    /// sends RAMP→E; the destination receives W→RAMP.
    pub fn route_east_chain(&mut self, row: usize, start_col: usize, end_col: usize, color: Color) {
        assert!(start_col < end_col, "eastward chain needs start < end");
        self.set_rule(
            PeId::new(row, start_col),
            color,
            RouteRule {
                input: None,
                outputs: vec![Direction::East],
            },
        );
        for col in start_col + 1..end_col {
            self.set_rule(
                PeId::new(row, col),
                color,
                RouteRule {
                    input: Some(Direction::West),
                    outputs: vec![Direction::East],
                },
            );
        }
        self.set_rule(
            PeId::new(row, end_col),
            color,
            RouteRule {
                input: Some(Direction::West),
                outputs: vec![Direction::Ramp],
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn east_rule(input: Option<Direction>) -> RouteRule {
        RouteRule {
            input,
            outputs: vec![Direction::East],
        }
    }

    fn ramp_rule(input: Option<Direction>) -> RouteRule {
        RouteRule {
            input,
            outputs: vec![Direction::Ramp],
        }
    }

    #[test]
    fn color_id_range_enforced() {
        let c = Color::new(23);
        assert_eq!(c.id(), 23);
    }

    #[test]
    #[should_panic(expected = "24 colors")]
    fn color_24_panics() {
        let _ = Color::new(24);
    }

    #[test]
    fn one_hop_path() {
        let mut f = Fabric::new(1, 2);
        let c = Color::new(0);
        f.set_rule(PeId::new(0, 0), c, east_rule(None));
        f.set_rule(PeId::new(0, 1), c, ramp_rule(Some(Direction::West)));
        let p = f.resolve_path(PeId::new(0, 0), c, None).unwrap();
        assert_eq!(p.dest, PeId::new(0, 1));
        assert_eq!(p.hops.len(), 1);
    }

    #[test]
    fn multi_hop_chain() {
        let mut f = Fabric::new(1, 5);
        let c = Color::new(3);
        f.route_east_chain(0, 0, 4, c);
        let p = f.resolve_path(PeId::new(0, 0), c, None).unwrap();
        assert_eq!(p.dest, PeId::new(0, 4));
        assert_eq!(p.hops.len(), 4);
    }

    #[test]
    fn missing_rule_is_error() {
        let f = Fabric::new(1, 2);
        assert!(matches!(
            f.resolve_path(PeId::new(0, 0), Color::new(0), None),
            Err(SimError::NoRoute { .. })
        ));
    }

    #[test]
    fn route_off_mesh_is_error() {
        let mut f = Fabric::new(1, 1);
        let c = Color::new(0);
        f.set_rule(PeId::new(0, 0), c, east_rule(None));
        assert!(matches!(
            f.resolve_path(PeId::new(0, 0), c, None),
            Err(SimError::RouteOffMesh { .. })
        ));
    }

    #[test]
    fn routing_loop_detected() {
        let mut f = Fabric::new(1, 2);
        let c = Color::new(0);
        // 0 → East, 1 → West: ping-pong forever.
        f.set_rule(PeId::new(0, 0), c, east_rule(None));
        f.set_rule(
            PeId::new(0, 1),
            c,
            RouteRule {
                input: Some(Direction::West),
                outputs: vec![Direction::West],
            },
        );
        // PE 0 expects input None but arrives from East → mismatch is also
        // acceptable; either way resolution must fail, not hang.
        assert!(f.resolve_path(PeId::new(0, 0), c, None).is_err());
    }

    #[test]
    fn stream_timing_no_contention() {
        let mut f = Fabric::new(1, 3);
        let c = Color::new(1);
        f.route_east_chain(0, 0, 2, c);
        let p = f.resolve_path(PeId::new(0, 0), c, None).unwrap();
        let (src_done, delivered) = f.schedule_stream(&p, 32, Time::ZERO);
        assert_eq!(src_done, Time::from_cycles(32));
        // Head reaches dest after 2 hops (2 cycles); last wavelet 32 later.
        assert_eq!(delivered, Time::from_cycles(34));
    }

    #[test]
    fn streams_serialize_on_shared_link() {
        let mut f = Fabric::new(1, 2);
        let c = Color::new(0);
        f.route_east_chain(0, 0, 1, c);
        let p = f.resolve_path(PeId::new(0, 0), c, None).unwrap();
        let (_, d1) = f.schedule_stream(&p, 10, Time::ZERO);
        let (_, d2) = f.schedule_stream(&p, 10, Time::ZERO);
        assert_eq!(d1, Time::from_cycles(11));
        // Second stream waits for the link: starts at 10, head at 11, done 21.
        assert_eq!(d2, Time::from_cycles(21));
    }

    #[test]
    fn single_pe_mesh_resolves_to_itself() {
        // The degenerate 1×1 mesh: the only legal route is RAMP→RAMP.
        let mut f = Fabric::new(1, 1);
        let c = Color::new(0);
        f.set_rule(PeId::new(0, 0), c, ramp_rule(None));
        let p = f.resolve_path(PeId::new(0, 0), c, None).unwrap();
        assert_eq!(p.dest, PeId::new(0, 0));
        assert!(p.hops.is_empty());
    }

    #[test]
    fn self_loop_rule_is_typed_error_not_hang() {
        // (0,1) bounces the stream straight back West; (0,0)'s rule expects
        // origin input (None), so the returning stream is a RouteMismatch.
        // The resolver must surface a typed error, never spin.
        let mut f = Fabric::new(1, 2);
        let c = Color::new(4);
        f.set_rule(PeId::new(0, 0), c, east_rule(None));
        f.set_rule(
            PeId::new(0, 1),
            c,
            RouteRule {
                input: Some(Direction::West),
                outputs: vec![Direction::West],
            },
        );
        assert!(matches!(
            f.resolve_path(PeId::new(0, 0), c, None),
            Err(SimError::RouteMismatch { .. })
        ));
    }

    #[test]
    fn rampless_ring_is_typed_error_not_hang() {
        // A consistent 2×2 ring with no RAMP anywhere: every hop's input
        // matches, so the walk only terminates via the hop bound, which must
        // surface as RoutingLoop rather than iterating forever.
        let mut f = Fabric::new(2, 2);
        let c = Color::new(5);
        let rule = |input: Direction, out: Direction| RouteRule {
            input: Some(input),
            outputs: vec![out],
        };
        f.set_rule(PeId::new(0, 0), c, rule(Direction::South, Direction::East));
        f.set_rule(PeId::new(0, 1), c, rule(Direction::West, Direction::South));
        f.set_rule(PeId::new(1, 1), c, rule(Direction::North, Direction::West));
        f.set_rule(PeId::new(1, 0), c, rule(Direction::East, Direction::North));
        // Enter the ring as if arriving at (0,0) from the south.
        assert!(matches!(
            f.resolve_path(PeId::new(0, 0), c, Some(Direction::South)),
            Err(SimError::RoutingLoop { .. })
        ));
    }

    #[test]
    fn rule_with_no_outputs_is_typed_error() {
        let mut f = Fabric::new(1, 1);
        let c = Color::new(6);
        f.set_rule(
            PeId::new(0, 0),
            c,
            RouteRule {
                input: None,
                outputs: vec![],
            },
        );
        assert!(matches!(
            f.resolve_path(PeId::new(0, 0), c, None),
            Err(SimError::NoRoute { .. })
        ));
    }

    #[test]
    fn origins_reaching_names_exactly_the_feeding_senders() {
        // Two origins on the same color: one chain delivers at (0,2), the
        // other at (1,0) locally. Each destination sees only its own feeder.
        let mut f = Fabric::new(2, 3);
        let c = Color::new(7);
        f.route_east_chain(0, 0, 2, c);
        f.set_rule(PeId::new(1, 0), c, ramp_rule(None));
        assert_eq!(
            f.origins_reaching(PeId::new(0, 2), c),
            vec![PeId::new(0, 0)]
        );
        assert_eq!(
            f.origins_reaching(PeId::new(1, 0), c),
            vec![PeId::new(1, 0)]
        );
        assert!(f.origins_reaching(PeId::new(0, 1), c).is_empty());
    }

    #[test]
    fn origins_reaching_skips_unresolvable_origins() {
        // An origin whose chain runs off the mesh contributes no feeder.
        let mut f = Fabric::new(1, 2);
        let c = Color::new(8);
        f.set_rule(PeId::new(0, 1), c, east_rule(None)); // east of col 1 = off-mesh
        assert!(f.origins_reaching(PeId::new(0, 0), c).is_empty());
    }

    #[test]
    fn zero_length_path_delivers_locally() {
        // A color routed RAMP→RAMP on one PE (local loopback).
        let mut f = Fabric::new(1, 1);
        let c = Color::new(2);
        f.set_rule(PeId::new(0, 0), c, ramp_rule(None));
        let p = f.resolve_path(PeId::new(0, 0), c, None).unwrap();
        assert_eq!(p.dest, PeId::new(0, 0));
        assert!(p.hops.is_empty());
        let (s, d) = f.schedule_stream(&p, 8, Time::from_cycles(5));
        assert_eq!(s, Time::from_cycles(13));
        assert_eq!(d, Time::from_cycles(13));
    }
}
