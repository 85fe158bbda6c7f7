package flow

import (
	"bytes"
	"testing"
)

// FuzzParseKey checks ParseKey never panics and accepts only the text
// String writes: every accepted input is the String of the key it parses
// to.
func FuzzParseKey(f *testing.F) {
	f.Add("10.1.2.3:12345>192.168.0.9:443/tcp")
	f.Add("1.2.3.4:0>5.6.7.8:65535/udp")
	f.Add("<none>")
	f.Add("255.255.255.255:1>0.0.0.1:2/proto89")
	f.Add("1.2.3.4:0443>5.6.7.8:2/tcp")
	f.Add("1.2.3.4:443>5.6.7.8:2/proto6")
	f.Add("1.2.3.4:443>5.6.7.8:2/proto017")
	f.Add("garbage")
	f.Add(":>:/")
	f.Fuzz(func(t *testing.T, s string) {
		k, err := ParseKey(s)
		if err != nil {
			return
		}
		if k.String() != s {
			t.Fatalf("ParseKey(%q) = %v, which is written %q", s, k, k.String())
		}
	})
}

// FuzzDecodeKey checks the binary decoder never panics and that decoded
// keys re-encode to the same bytes.
func FuzzDecodeKey(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, KeyWireSize))
	f.Add(bytes.Repeat([]byte{0xFF}, KeyWireSize+3))
	f.Fuzz(func(t *testing.T, data []byte) {
		k, rest, err := DecodeKey(data)
		if err != nil {
			return
		}
		if len(data)-len(rest) != KeyWireSize {
			t.Fatalf("consumed %d bytes, want %d", len(data)-len(rest), KeyWireSize)
		}
		enc := k.AppendBinary(nil)
		if !bytes.Equal(enc, data[:KeyWireSize]) {
			t.Fatalf("re-encode mismatch: %x vs %x", enc, data[:KeyWireSize])
		}
	})
}

// packCorners are the keys the packed form could plausibly get wrong: the
// all-zero 5-tuple (storable, told from "never written" by B's bit 0 alone),
// every field at each end of its range, and fields that differ only in the
// bits next to a neighbour's.
var packCorners = []Key{
	{},
	{Proto: 255},
	{Proto: 1},
	{SrcPort: 65535},
	{DstPort: 65535},
	{SrcPort: 65535, DstPort: 65535, Proto: 255},
	{SrcIP: [4]byte{255, 255, 255, 255}},
	{DstIP: [4]byte{255, 255, 255, 255}},
	{SrcIP: [4]byte{0, 0, 0, 1}, DstIP: [4]byte{128, 0, 0, 0}},
	{SrcIP: [4]byte{255, 255, 255, 255}, DstIP: [4]byte{255, 255, 255, 255}, SrcPort: 65535, DstPort: 65535, Proto: 255},
}

// checkPack holds Pack to what the registers rely on: Key inverts it, Unpack
// agrees with Key, B is never zero, and the packed words order as Compare
// orders the keys.
func checkPack(t *testing.T, a, b Key) {
	t.Helper()
	pa, pb := a.Pack(), b.Pack()
	if got := pa.Key(); got != a {
		t.Fatalf("Pack(%#v).Key() = %#v", a, got)
	}
	into := b // Unpack overwrites every field
	if pa.Unpack(&into); into != a {
		t.Fatalf("Pack(%#v).Unpack = %#v", a, into)
	}
	if pa.B&1 != 1 || pb.B&1 != 1 {
		t.Fatalf("written mark missing: %#x, %#x", pa.B, pb.B)
	}
	cmp := 0
	switch {
	case pa.A < pb.A || (pa.A == pb.A && pa.B < pb.B):
		cmp = -1
	case pa != pb:
		cmp = 1
	}
	if want := a.Compare(b); cmp != want {
		t.Fatalf("packed words order %#v, %#v as %d, Compare as %d", a, b, cmp, want)
	}
}

// FuzzPackKey round-trips two keys through the packed form.
func FuzzPackKey(f *testing.F) {
	for i, k := range packCorners {
		f.Add(packCorners[(i+1)%len(packCorners)].AppendBinary(k.AppendBinary(nil)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a, rest, err := DecodeKey(data)
		if err != nil {
			return
		}
		b, _, err := DecodeKey(rest)
		if err != nil {
			return
		}
		checkPack(t, a, b)
	})
}
