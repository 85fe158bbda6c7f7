package flow

import (
	"fmt"
	"net/netip"
	"testing"
	"testing/quick"
)

func sampleKey() Key {
	return NewKey(netip.MustParseAddr("10.1.2.3"), 12345, netip.MustParseAddr("192.168.0.9"), 443, ProtoTCP)
}

func TestStringParseRoundTrip(t *testing.T) {
	tests := []Key{
		sampleKey(),
		NewKey(netip.MustParseAddr("1.2.3.4"), 0, netip.MustParseAddr("5.6.7.8"), 65535, ProtoUDP),
		NewKey(netip.MustParseAddr("255.255.255.255"), 1, netip.MustParseAddr("0.0.0.1"), 2, Proto(89)),
		Zero,
	}
	for _, k := range tests {
		got, err := ParseKey(k.String())
		if err != nil {
			t.Fatalf("ParseKey(%q): %v", k.String(), err)
		}
		if got != k {
			t.Fatalf("round trip %q: got %v", k.String(), got)
		}
	}
}

// sprintfKey is the rendering String had before AppendText, kept as the
// oracle: every reply ever put on the wire and every log line used it.
func sprintfKey(k Key) string {
	if k.IsZero() {
		return "<none>"
	}
	return fmt.Sprintf("%s:%d>%s:%d/%s", k.Src(), k.SrcPort, k.Dst(), k.DstPort, k.Proto)
}

// TestParseKeyRefusesOtherSpellings: ParseKey reads the text AppendText
// writes and nothing else, so one flow never arrives under two text keys —
// a protocol number where AppendText names the protocol, leading zeros, a
// sign, and the zero key spelled out are all refused.
func TestParseKeyRefusesOtherSpellings(t *testing.T) {
	for _, s := range []string{
		"1.2.3.4:0443>5.6.7.8:2/tcp",
		"1.2.3.4:443>5.6.7.8:2/proto6",
		"1.2.3.4:443>5.6.7.8:2/proto017",
		"1.2.3.4:443>5.6.7.8:2/proto17",
		"1.2.3.4:443>5.6.7.8:2/proto089",
		"01.2.3.4:443>5.6.7.8:2/tcp",
		"1.2.3.4:443>5.6.7.008:2/udp",
		"1.2.3.4:443>5.6.7.8:00/udp",
		"1.2.3.4:+443>5.6.7.8:2/tcp",
		"1.2.3.4:443>5.6.7.8:2/TCP",
		"1.2.3.4:443>5.6.7.8:2/tcp ",
		"1.2.3.4:65536>5.6.7.8:2/tcp",
		"1.2.3.256:1>5.6.7.8:2/tcp",
		"1.2.3:1>5.6.7.8:2/tcp",
		"1.2.3.4.5:1>5.6.7.8:2/tcp",
		"::ffff:1.2.3.4:1>5.6.7.8:2/tcp",
		"1.2.3.4:1>5.6.7.8:2/proto256",
		"1.2.3.4:1>5.6.7.8:2/proto",
		"0.0.0.0:0>0.0.0.0:0/proto0",
		"",
	} {
		if k, err := ParseKey(s); err == nil {
			t.Errorf("ParseKey(%q) = %v, want an error: AppendText writes that key %q", s, k, k.String())
		}
	}
	for _, s := range []string{
		"1.2.3.4:443>5.6.7.8:2/tcp",
		"1.2.3.4:0>5.6.7.8:65535/udp",
		"0.0.0.0:0>0.0.0.0:0/proto1",
		"255.255.255.255:65535>255.255.255.255:65535/proto255",
		"<none>",
	} {
		if k, err := ParseKey(s); err != nil || k.String() != s {
			t.Errorf("ParseKey(%q) = %v, %v", s, k, err)
		}
	}
}

// BenchmarkKeyText is one key's text each way: written into a sized buffer,
// and parsed back.
func BenchmarkKeyText(b *testing.B) {
	k := NewKey(netip.MustParseAddr("10.1.200.3"), 12345, netip.MustParseAddr("192.168.0.9"), 443, ProtoTCP)
	b.Run("AppendText", func(b *testing.B) {
		buf := make([]byte, 0, MaxKeyTextLen)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = k.AppendText(buf[:0])
		}
	})
	b.Run("ParseKey", func(b *testing.B) {
		s := k.String()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ParseKey(s); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestAppendTextMatchesSprintf: AppendText (and String over it) is
// byte-identical to the fmt rendering for random keys, the zero key, every
// protocol number and the longest key; ParseKey inverts it; it appends after
// what the buffer already holds; and into a sized buffer it allocates nothing.
func TestAppendTextMatchesSprintf(t *testing.T) {
	check := func(k Key) bool {
		want := sprintfKey(k)
		got := string(k.AppendText([]byte("x")))
		if got != "x"+want || k.String() != want || len(want) > MaxKeyTextLen {
			t.Errorf("key %#v: AppendText %q, String %q, fmt %q", k, got, k.String(), want)
			return false
		}
		back, err := ParseKey(want)
		if err != nil || back != k {
			t.Errorf("ParseKey(%q) = %v, %v; want %v", want, back, err, k)
			return false
		}
		return true
	}
	f := func(a, b [4]byte, sp, dp uint16, proto uint8) bool {
		return check(Key{SrcIP: a, DstIP: b, SrcPort: sp, DstPort: dp, Proto: Proto(proto)})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	check(Zero)
	for proto := 0; proto < 256; proto++ {
		check(Key{SrcIP: [4]byte{1, 2, 3, 4}, DstPort: 9, Proto: Proto(proto)})
	}
	longest := Key{SrcIP: [4]byte{255, 255, 255, 255}, DstIP: [4]byte{255, 255, 255, 255}, SrcPort: 65535, DstPort: 65535, Proto: 255}
	if check(longest); len(longest.String()) != MaxKeyTextLen {
		t.Errorf("longest key renders %d bytes, MaxKeyTextLen is %d", len(longest.String()), MaxKeyTextLen)
	}

	buf := make([]byte, 0, MaxKeyTextLen)
	k := sampleKey()
	if n := testing.AllocsPerRun(100, func() { buf = k.AppendText(buf[:0]) }); n != 0 {
		t.Errorf("AppendText into a sized buffer allocates %.0f/op, want 0", n)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "nonsense", "1.2.3.4:5>6.7.8.9:10", // missing proto
		"1.2.3.4>5.6.7.8:10/tcp",         // missing src port
		"1.2.3.4:5>6.7.8.9:10/bogus",     // bad proto
		"1.2.3.4:5>6.7.8.9:10/proto9999", // proto overflow
		"::1:5>6.7.8.9:10/tcp",           // v6 not supported
		"1.2.3.4:99999>5.6.7.8:10/udp",   // port overflow
	}
	for _, s := range bad {
		if _, err := ParseKey(s); err == nil {
			t.Errorf("ParseKey(%q) succeeded", s)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	f := func(a, b [4]byte, sp, dp uint16, proto uint8) bool {
		k := Key{SrcIP: a, DstIP: b, SrcPort: sp, DstPort: dp, Proto: Proto(proto)}
		enc := k.AppendBinary(nil)
		if len(enc) != KeyWireSize {
			return false
		}
		got, rest, err := DecodeKey(enc)
		return err == nil && len(rest) == 0 && got == k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeKeyShort(t *testing.T) {
	if _, _, err := DecodeKey(make([]byte, KeyWireSize-1)); err == nil {
		t.Fatal("short decode succeeded")
	}
}

func TestReverse(t *testing.T) {
	k := sampleKey()
	r := k.Reverse()
	if r.SrcIP != k.DstIP || r.DstIP != k.SrcIP || r.SrcPort != k.DstPort || r.DstPort != k.SrcPort {
		t.Fatalf("Reverse = %v", r)
	}
	if r.Reverse() != k {
		t.Fatal("Reverse not an involution")
	}
}

func TestHashDeterministicAndSeeded(t *testing.T) {
	k := sampleKey()
	if k.Hash(1) != k.Hash(1) {
		t.Fatal("hash not deterministic")
	}
	if k.Hash(1) == k.Hash(2) {
		t.Fatal("seeds do not separate hashes")
	}
	if k.Hash(1) == k.Reverse().Hash(1) {
		t.Fatal("directions collide")
	}
}

func TestHashDistribution(t *testing.T) {
	// 4096 sequential flows into 64 buckets: no bucket should be badly
	// overloaded if the hash avalanches.
	buckets := make([]int, 64)
	for i := 0; i < 4096; i++ {
		k := Key{SrcIP: [4]byte{10, 0, byte(i >> 8), byte(i)}, DstIP: [4]byte{10, 0, 0, 1}, SrcPort: 80, DstPort: 80, Proto: ProtoTCP}
		buckets[k.Hash(7)&63]++
	}
	for i, n := range buckets {
		if n < 24 || n > 110 { // expectation 64
			t.Fatalf("bucket %d holds %d of 4096 (expected ~64)", i, n)
		}
	}
}

func TestIsZero(t *testing.T) {
	if !Zero.IsZero() || sampleKey().IsZero() {
		t.Fatal("IsZero wrong")
	}
}

func TestProtoString(t *testing.T) {
	if ProtoTCP.String() != "tcp" || ProtoUDP.String() != "udp" || Proto(47).String() != "proto47" {
		t.Fatal("proto names wrong")
	}
}

// TestPackRoundTrip: the two-word form holds exactly a Key — random keys and
// the corners, pairwise — and the zero Packed, a never-written register, is
// no key's packing yet unpacks to the zero key.
func TestPackRoundTrip(t *testing.T) {
	for _, a := range packCorners {
		for _, b := range packCorners {
			checkPack(t, a, b)
		}
	}
	f := func(a, b [4]byte, sp, dp uint16, proto uint8, a2, b2 [4]byte, sp2, dp2 uint16, proto2 uint8) bool {
		checkPack(t, Key{a, b, sp, dp, Proto(proto)}, Key{a2, b2, sp2, dp2, Proto(proto2)})
		checkPack(t, Key{a, b, sp, dp, Proto(proto)}, Key{a, b, sp, dp2, Proto(proto2)})
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
	if got := (Packed{}).Key(); got != Zero {
		t.Fatalf("zero Packed unpacks to %#v", got)
	}
	if Zero.Pack() == (Packed{}) {
		t.Fatal("the zero key packs to the never-written mark")
	}
}
