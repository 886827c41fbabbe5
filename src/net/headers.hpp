// Protocol header views and constructors over Packet.
//
// The views are offset-based accessors (no reinterpret_cast aliasing): every
// field read/write goes through Packet::load_be/store_be, matching the
// big-endian wire format exactly like the IR's PktLoad/PktStore do.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "net/packet.hpp"

namespace vsd::net {

using MacAddress = std::array<uint8_t, 6>;

inline constexpr size_t kEtherHeaderSize = 14;
inline constexpr size_t kIpv4MinHeaderSize = 20;
inline constexpr size_t kIpv4MaxHeaderSize = 60;
inline constexpr uint16_t kEtherTypeIpv4 = 0x0800;
inline constexpr uint16_t kEtherTypeArp = 0x0806;
inline constexpr uint8_t kProtoIcmp = 1;
inline constexpr uint8_t kProtoTcp = 6;
inline constexpr uint8_t kProtoUdp = 17;

// IP option kinds used by the IPOptions element (RFC 791).
inline constexpr uint8_t kIpOptEnd = 0;
inline constexpr uint8_t kIpOptNop = 1;
inline constexpr uint8_t kIpOptSecurity = 130;
inline constexpr uint8_t kIpOptLsrr = 131;
inline constexpr uint8_t kIpOptSsrr = 137;
inline constexpr uint8_t kIpOptRecordRoute = 7;
inline constexpr uint8_t kIpOptTimestamp = 68;

// Parses dotted-quad "a.b.c.d" (each octet 1-3 ASCII digits, at most 255)
// into host-order uint32. Throws std::invalid_argument on anything else,
// surrounding whitespace and signs included.
uint32_t parse_ipv4(const std::string& s);
std::string format_ipv4(uint32_t addr);

// One's-complement checksum over [off, off+len) of the packet.
uint16_t ones_complement_checksum(const Packet& p, size_t off, size_t len);

// --- Ethernet ---------------------------------------------------------------

struct EtherView {
  Packet& p;
  explicit EtherView(Packet& pkt) : p(pkt) {}

  MacAddress dst() const;
  MacAddress src() const;
  uint16_t ether_type() const { return static_cast<uint16_t>(p.load_be(12, 2)); }
  void set_dst(const MacAddress& m);
  void set_src(const MacAddress& m);
  void set_ether_type(uint16_t t) { p.store_be(12, 2, t); }
};

// --- IPv4 (offset is the start of the IP header within the packet) ----------

struct Ipv4View {
  Packet& p;
  size_t off;
  Ipv4View(Packet& pkt, size_t o) : p(pkt), off(o) {}

  uint8_t version() const { return static_cast<uint8_t>(p.load_be(off, 1)) >> 4; }
  uint8_t ihl() const { return static_cast<uint8_t>(p.load_be(off, 1)) & 0xf; }
  size_t header_len() const { return size_t{ihl()} * 4; }
  uint8_t tos() const { return static_cast<uint8_t>(p.load_be(off + 1, 1)); }
  uint16_t total_len() const { return static_cast<uint16_t>(p.load_be(off + 2, 2)); }
  uint16_t id() const { return static_cast<uint16_t>(p.load_be(off + 4, 2)); }
  uint16_t frag_off_field() const { return static_cast<uint16_t>(p.load_be(off + 6, 2)); }
  uint8_t ttl() const { return static_cast<uint8_t>(p.load_be(off + 8, 1)); }
  uint8_t protocol() const { return static_cast<uint8_t>(p.load_be(off + 9, 1)); }
  uint16_t checksum() const { return static_cast<uint16_t>(p.load_be(off + 10, 2)); }
  uint32_t src() const { return static_cast<uint32_t>(p.load_be(off + 12, 4)); }
  uint32_t dst() const { return static_cast<uint32_t>(p.load_be(off + 16, 4)); }

  void set_version_ihl(uint8_t version, uint8_t ihl) {
    p.store_be(off, 1, static_cast<uint64_t>((version << 4) | (ihl & 0xf)));
  }
  void set_tos(uint8_t v) { p.store_be(off + 1, 1, v); }
  void set_total_len(uint16_t v) { p.store_be(off + 2, 2, v); }
  void set_id(uint16_t v) { p.store_be(off + 4, 2, v); }
  void set_frag_off_field(uint16_t v) { p.store_be(off + 6, 2, v); }
  void set_ttl(uint8_t v) { p.store_be(off + 8, 1, v); }
  void set_protocol(uint8_t v) { p.store_be(off + 9, 1, v); }
  void set_checksum(uint16_t v) { p.store_be(off + 10, 2, v); }
  void set_src(uint32_t v) { p.store_be(off + 12, 4, v); }
  void set_dst(uint32_t v) { p.store_be(off + 16, 4, v); }

  // Recomputes and stores the header checksum over ihl()*4 bytes.
  void update_checksum();
  // True iff the stored checksum verifies.
  bool checksum_ok() const;
};

// --- L4 (UDP/TCP share the port layout) -------------------------------------

struct L4View {
  Packet& p;
  size_t off;  // start of the L4 header
  L4View(Packet& pkt, size_t o) : p(pkt), off(o) {}

  uint16_t src_port() const { return static_cast<uint16_t>(p.load_be(off, 2)); }
  uint16_t dst_port() const { return static_cast<uint16_t>(p.load_be(off + 2, 2)); }
  void set_src_port(uint16_t v) { p.store_be(off, 2, v); }
  void set_dst_port(uint16_t v) { p.store_be(off + 2, 2, v); }
};

// --- Builders ---------------------------------------------------------------

struct PacketSpec {
  MacAddress eth_dst{0x02, 0, 0, 0, 0, 0x01};
  MacAddress eth_src{0x02, 0, 0, 0, 0, 0x02};
  uint16_t ether_type = kEtherTypeIpv4;
  uint32_t ip_src = 0x0a000001;  // 10.0.0.1
  uint32_t ip_dst = 0x0a000002;  // 10.0.0.2
  uint8_t ttl = 64;
  uint8_t protocol = kProtoUdp;
  uint8_t tos = 0;
  uint16_t ip_id = 0;
  uint16_t src_port = 1234;
  uint16_t dst_port = 80;
  // Raw IP options bytes appended to the 20-byte header (padded to 4B).
  std::vector<uint8_t> ip_options;
  size_t payload_len = 26;
  uint8_t payload_fill = 0xab;
  bool fix_checksum = true;
};

// Builds a well-formed Ethernet+IPv4(+options)+L4 packet per the spec.
Packet make_packet(const PacketSpec& spec);

// Builds a packet of exactly `total_len` raw bytes (uniform fill), no
// structure. Used for adversarial / fuzz workloads.
Packet make_raw_packet(size_t total_len, uint8_t fill = 0);

}  // namespace vsd::net
