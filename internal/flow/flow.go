// Package flow defines flow identity for PrintQueue: the 5-tuple key the
// paper uses to aggregate culprit packets ("Flow ID, expressed as 5-Tuple"),
// plus hashing and per-flow counting helpers shared by the data-plane
// structures, the baselines, and the ground-truth scorer.
package flow

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net/netip"
	"strconv"
	"strings"
)

// Proto is an IP protocol number. Only TCP and UDP appear in the paper's
// workloads, but any 8-bit protocol is representable.
type Proto uint8

// Protocol numbers used by the workload generators.
const (
	ProtoTCP Proto = 6
	ProtoUDP Proto = 17
)

func (p Proto) String() string {
	switch p {
	case ProtoTCP:
		return "tcp"
	case ProtoUDP:
		return "udp"
	default:
		return "proto" + strconv.Itoa(int(p))
	}
}

// Key is a 5-tuple flow identifier. It is comparable and therefore usable as
// a map key, and compact enough (13 bytes + padding) to store per register
// cell in the simulator.
type Key struct {
	SrcIP   [4]byte
	DstIP   [4]byte
	SrcPort uint16
	DstPort uint16
	Proto   Proto
}

// Zero is the zero Key. An all-zero 5-tuple never appears in generated
// workloads, so data structures may use it as "empty cell".
var Zero Key

// IsZero reports whether k is the zero (empty) key.
func (k Key) IsZero() bool { return k == Zero }

// NewKey builds a Key from addr/port pairs.
func NewKey(src netip.Addr, sport uint16, dst netip.Addr, dport uint16, proto Proto) Key {
	var k Key
	k.SrcIP = src.As4()
	k.DstIP = dst.As4()
	k.SrcPort = sport
	k.DstPort = dport
	k.Proto = proto
	return k
}

// Src returns the source address of the flow.
func (k Key) Src() netip.Addr { return netip.AddrFrom4(k.SrcIP) }

// Dst returns the destination address of the flow.
func (k Key) Dst() netip.Addr { return netip.AddrFrom4(k.DstIP) }

// Reverse returns the key of the opposite direction of the flow.
func (k Key) Reverse() Key {
	return Key{
		SrcIP:   k.DstIP,
		DstIP:   k.SrcIP,
		SrcPort: k.DstPort,
		DstPort: k.SrcPort,
		Proto:   k.Proto,
	}
}

// Packed is a Key in two machine words, the form the data-plane registers
// hold and the per-packet path passes: a struct of two arrays, two uint16
// and a byte is assembled on the stack field by field wherever it is copied,
// two integers travel in registers.
//
//	A = SrcIP ‖ DstIP                      (big-endian, SrcIP in the high half)
//	B = SrcPort ‖ DstPort ‖ Proto ‖ 0…01   (bits 63–48, 47–32, 31–24, bit 0 set)
//
// Bit 0 of B is set by Pack on every key, the all-zero 5-tuple included, so
// B != 0 means "holds a key" and the zero Packed means "never written" —
// how the hardware tells a written register from an empty one — without
// costing the zero key its place.
type Packed struct{ A, B uint64 }

// Pack returns k in two words. It reads k where it lies: the per-packet path
// packs the key inside the packet record, and a by-value receiver would first
// copy those 14 bytes to the stack with two overlapping 8-byte stores, which
// the loads below cannot be forwarded from.
func (k *Key) Pack() Packed {
	return Packed{
		A: uint64(binary.BigEndian.Uint32(k.SrcIP[:]))<<32 | uint64(binary.BigEndian.Uint32(k.DstIP[:])),
		B: uint64(k.SrcPort)<<48 | uint64(k.DstPort)<<32 | uint64(k.Proto)<<24 | 1,
	}
}

// Key returns the key Pack packed. Of the zero Packed it returns the zero
// key.
func (p Packed) Key() Key {
	var k Key
	p.Unpack(&k)
	return k
}

// Unpack writes the key Pack packed into *k, field by field. A frozen read
// unpacks thousands of registers into snapshot cells that already exist;
// writing the fields where they go skips the stack temporary and the copy
// that assigning Key()'s result costs.
func (p Packed) Unpack(k *Key) {
	binary.BigEndian.PutUint32(k.SrcIP[:], uint32(p.A>>32))
	binary.BigEndian.PutUint32(k.DstIP[:], uint32(p.A))
	k.SrcPort = uint16(p.B >> 48)
	k.DstPort = uint16(p.B >> 32)
	k.Proto = Proto(p.B >> 24)
}

// Compare orders keys by (SrcIP, DstIP, SrcPort, DstPort, Proto) — the
// same field order as the wire encoding. It is the deterministic tie-break
// used by ranked reports; unlike comparing String() renderings it performs
// no allocation, so sort comparators can call it per comparison.
func (k Key) Compare(o Key) int {
	if c := bytes.Compare(k.SrcIP[:], o.SrcIP[:]); c != 0 {
		return c
	}
	if c := bytes.Compare(k.DstIP[:], o.DstIP[:]); c != 0 {
		return c
	}
	if k.SrcPort != o.SrcPort {
		if k.SrcPort < o.SrcPort {
			return -1
		}
		return 1
	}
	if k.DstPort != o.DstPort {
		if k.DstPort < o.DstPort {
			return -1
		}
		return 1
	}
	if k.Proto != o.Proto {
		if k.Proto < o.Proto {
			return -1
		}
		return 1
	}
	return 0
}

// String renders the key as "src:sport>dst:dport/proto".
func (k Key) String() string {
	var buf [MaxKeyTextLen]byte
	return string(k.AppendText(buf[:0]))
}

// MaxKeyTextLen is the longest text AppendText produces:
// "255.255.255.255:65535>255.255.255.255:65535/proto255".
const MaxKeyTextLen = 52

// AppendText appends the text String returns to b, allocating nothing when
// b has MaxKeyTextLen bytes to spare; ParseKey is its inverse. Encoders
// that write many keys (the query reply frame) call it on the frame buffer
// directly.
func (k Key) AppendText(b []byte) []byte {
	if k.IsZero() {
		return append(b, "<none>"...)
	}
	b = appendIPv4(b, k.SrcIP)
	b = append(b, ':')
	b = strconv.AppendUint(b, uint64(k.SrcPort), 10)
	b = append(b, '>')
	b = appendIPv4(b, k.DstIP)
	b = append(b, ':')
	b = strconv.AppendUint(b, uint64(k.DstPort), 10)
	b = append(b, '/')
	if k.Proto == ProtoTCP || k.Proto == ProtoUDP {
		return append(b, k.Proto.String()...) // a constant: no allocation
	}
	b = append(b, "proto"...)
	return strconv.AppendUint(b, uint64(k.Proto), 10)
}

func appendIPv4(b []byte, ip [4]byte) []byte {
	for i, octet := range ip {
		if i > 0 {
			b = append(b, '.')
		}
		b = strconv.AppendUint(b, uint64(octet), 10)
	}
	return b
}

// ParseKey parses the text AppendText writes — that text and no other
// spelling of the same key, such as one with a leading zero or a protocol
// number where AppendText names the protocol, so two distinct texts never
// name one flow. It accepts "<none>" for the zero key.
func ParseKey(s string) (Key, error) {
	if s == "<none>" {
		return Zero, nil
	}
	slash := strings.LastIndexByte(s, '/')
	if slash < 0 {
		return Zero, fmt.Errorf("flow: missing protocol in %q", s)
	}
	var proto Proto
	switch ps := s[slash+1:]; ps {
	case "tcp":
		proto = ProtoTCP
	case "udp":
		proto = ProtoUDP
	default:
		if !strings.HasPrefix(ps, "proto") {
			return Zero, fmt.Errorf("flow: bad protocol %q", ps)
		}
		n, err := parseDecimal(ps[len("proto"):], 8)
		if err != nil {
			return Zero, fmt.Errorf("flow: bad protocol %q: %v", ps, err)
		}
		if proto = Proto(n); proto == ProtoTCP || proto == ProtoUDP {
			return Zero, fmt.Errorf("flow: protocol %q is written %q", ps, proto.String())
		}
	}
	gt := strings.IndexByte(s, '>')
	if gt < 0 {
		return Zero, fmt.Errorf("flow: missing '>' in %q", s)
	}
	src, sport, err := parseHostPort(s[:gt])
	if err != nil {
		return Zero, err
	}
	dst, dport, err := parseHostPort(s[gt+1 : slash])
	if err != nil {
		return Zero, err
	}
	k := NewKey(src, sport, dst, dport, proto)
	if k.IsZero() {
		return Zero, fmt.Errorf("flow: the zero key is written %q, not %q", "<none>", s)
	}
	return k, nil
}

// parseDecimal parses a decimal number of at most bits bits, written as
// AppendText writes one: digits only, no leading zero. (netip.ParseAddr
// already holds an IPv4 address to that.)
func parseDecimal(s string, bits int) (uint64, error) {
	if len(s) > 1 && s[0] == '0' {
		return 0, fmt.Errorf("leading zero in %q", s)
	}
	return strconv.ParseUint(s, 10, bits)
}

func parseHostPort(s string) (netip.Addr, uint16, error) {
	colon := strings.LastIndexByte(s, ':')
	if colon < 0 {
		return netip.Addr{}, 0, fmt.Errorf("flow: missing port in %q", s)
	}
	addr, err := netip.ParseAddr(s[:colon])
	if err != nil {
		return netip.Addr{}, 0, fmt.Errorf("flow: bad address in %q: %v", s, err)
	}
	if !addr.Is4() {
		return netip.Addr{}, 0, fmt.Errorf("flow: only IPv4 keys supported, got %q", s)
	}
	port, err := parseDecimal(s[colon+1:], 16)
	if err != nil {
		return netip.Addr{}, 0, fmt.Errorf("flow: bad port in %q: %v", s, err)
	}
	return addr, uint16(port), nil
}

// AppendBinary appends the 13-byte fixed-width wire encoding of k to b.
func (k Key) AppendBinary(b []byte) []byte {
	b = append(b, k.SrcIP[:]...)
	b = append(b, k.DstIP[:]...)
	b = binary.BigEndian.AppendUint16(b, k.SrcPort)
	b = binary.BigEndian.AppendUint16(b, k.DstPort)
	return append(b, byte(k.Proto))
}

// KeyWireSize is the size of a Key's binary encoding.
const KeyWireSize = 13

// DecodeKey decodes a key previously encoded with AppendBinary. It returns
// the decoded key and the remaining bytes.
func DecodeKey(b []byte) (Key, []byte, error) {
	if len(b) < KeyWireSize {
		return Zero, b, fmt.Errorf("flow: short key encoding (%d bytes)", len(b))
	}
	var k Key
	copy(k.SrcIP[:], b[0:4])
	copy(k.DstIP[:], b[4:8])
	k.SrcPort = binary.BigEndian.Uint16(b[8:10])
	k.DstPort = binary.BigEndian.Uint16(b[10:12])
	k.Proto = Proto(b[12])
	return k, b[KeyWireSize:], nil
}

// Hash returns a 64-bit hash of the key. The function is a fixed-key
// SplitMix64 avalanche over the packed tuple: deterministic across runs so
// experiments are reproducible, and well distributed so the baselines'
// hash-table stages behave like their papers assume.
func (k Key) Hash(seed uint64) uint64 {
	var buf [16]byte
	copy(buf[0:4], k.SrcIP[:])
	copy(buf[4:8], k.DstIP[:])
	binary.BigEndian.PutUint16(buf[8:10], k.SrcPort)
	binary.BigEndian.PutUint16(buf[10:12], k.DstPort)
	buf[12] = byte(k.Proto)
	lo := binary.LittleEndian.Uint64(buf[0:8])
	hi := binary.LittleEndian.Uint64(buf[8:16])
	return mix64(mix64(lo^seed) ^ hi)
}

// Hash32 returns a 32-bit hash, as a hardware pipeline computing a CRC-based
// flow digest would produce.
func (k Key) Hash32(seed uint64) uint32 {
	return uint32(k.Hash(seed) >> 32)
}

// mix64 is the SplitMix64 finalizer.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
