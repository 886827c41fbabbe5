#include "net/headers.hpp"

#include <cassert>
#include <sstream>
#include <stdexcept>

namespace vsd::net {

uint32_t parse_ipv4(const std::string& s) {
  uint32_t out = 0;
  size_t pos = 0;
  for (int part = 0; part < 4; ++part) {
    if (part != 0) {
      if (pos >= s.size() || s[pos] != '.') {
        throw std::invalid_argument("bad IPv4: " + s);
      }
      ++pos;
    }
    // 1-3 ASCII digits: no sign, no whitespace, nothing that can overflow.
    uint32_t v = 0;
    size_t digits = 0;
    for (; pos < s.size() && s[pos] >= '0' && s[pos] <= '9' && digits < 3;
         ++pos, ++digits) {
      v = v * 10 + static_cast<uint32_t>(s[pos] - '0');
    }
    if (digits == 0 || v > 255) {
      throw std::invalid_argument("bad IPv4 octet: " + s);
    }
    out = (out << 8) | v;
  }
  if (pos != s.size()) throw std::invalid_argument("bad IPv4: " + s);
  return out;
}

std::string format_ipv4(uint32_t addr) {
  std::ostringstream os;
  os << ((addr >> 24) & 0xff) << '.' << ((addr >> 16) & 0xff) << '.'
     << ((addr >> 8) & 0xff) << '.' << (addr & 0xff);
  return os.str();
}

uint16_t ones_complement_checksum(const Packet& p, size_t off, size_t len) {
  assert(off + len <= p.size());
  uint32_t sum = 0;
  size_t i = 0;
  for (; i + 1 < len; i += 2) {
    sum += static_cast<uint32_t>(p.load_be(off + i, 2));
  }
  if (i < len) {
    sum += static_cast<uint32_t>(p[off + i]) << 8;
  }
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<uint16_t>(~sum & 0xffff);
}

MacAddress EtherView::dst() const {
  MacAddress m;
  for (size_t i = 0; i < 6; ++i) m[i] = p[i];
  return m;
}

MacAddress EtherView::src() const {
  MacAddress m;
  for (size_t i = 0; i < 6; ++i) m[i] = p[6 + i];
  return m;
}

void EtherView::set_dst(const MacAddress& m) {
  for (size_t i = 0; i < 6; ++i) p[i] = m[i];
}

void EtherView::set_src(const MacAddress& m) {
  for (size_t i = 0; i < 6; ++i) p[6 + i] = m[i];
}

void Ipv4View::update_checksum() {
  set_checksum(0);
  set_checksum(ones_complement_checksum(p, off, header_len()));
}

bool Ipv4View::checksum_ok() const {
  // Summing the header including the stored checksum yields 0 when valid.
  uint32_t sum = 0;
  for (size_t i = 0; i < header_len(); i += 2) {
    sum += static_cast<uint32_t>(p.load_be(off + i, 2));
  }
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<uint16_t>(~sum & 0xffff) == 0;
}

Packet make_packet(const PacketSpec& spec) {
  std::vector<uint8_t> opts = spec.ip_options;
  while (opts.size() % 4 != 0) opts.push_back(kIpOptEnd);
  if (opts.size() > 40) throw std::invalid_argument("IP options too long");
  const size_t ip_hdr = kIpv4MinHeaderSize + opts.size();
  const size_t l4 = 8;  // UDP-sized L4 header
  const size_t total =
      kEtherHeaderSize + ip_hdr + l4 + spec.payload_len;

  Packet pkt = Packet::of_size(total, spec.payload_fill);
  EtherView eth(pkt);
  eth.set_dst(spec.eth_dst);
  eth.set_src(spec.eth_src);
  eth.set_ether_type(spec.ether_type);

  Ipv4View ip(pkt, kEtherHeaderSize);
  ip.set_version_ihl(4, static_cast<uint8_t>(ip_hdr / 4));
  ip.set_tos(spec.tos);
  ip.set_total_len(static_cast<uint16_t>(ip_hdr + l4 + spec.payload_len));
  ip.set_id(spec.ip_id);
  ip.set_frag_off_field(0);
  ip.set_ttl(spec.ttl);
  ip.set_protocol(spec.protocol);
  ip.set_checksum(0);
  ip.set_src(spec.ip_src);
  ip.set_dst(spec.ip_dst);
  for (size_t i = 0; i < opts.size(); ++i) {
    pkt[kEtherHeaderSize + kIpv4MinHeaderSize + i] = opts[i];
  }
  if (spec.fix_checksum) ip.update_checksum();

  L4View l4v(pkt, kEtherHeaderSize + ip_hdr);
  l4v.set_src_port(spec.src_port);
  l4v.set_dst_port(spec.dst_port);
  // UDP length field.
  pkt.store_be(kEtherHeaderSize + ip_hdr + 4, 2, l4 + spec.payload_len);
  return pkt;
}

Packet make_raw_packet(size_t total_len, uint8_t fill) {
  return Packet::of_size(total_len, fill);
}

}  // namespace vsd::net
