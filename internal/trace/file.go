package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"printqueue/internal/flow"
	"printqueue/internal/pktrec"
)

// Binary trace file format, the offline stand-in for the paper's pcap
// replays:
//
//	header:  magic "PQTR" | uint16 version | uint64 packet count
//	packet:  13-byte flow key | uint32 bytes | uint64 arrival ns
//	         | uint16 port | uint8 queue
//
// All integers are big-endian. Packets are stored in arrival order.

const (
	fileMagic   = "PQTR"
	fileVersion = 1
)

// WriteFile writes a packet schedule to w.
func WriteFile(w io.Writer, pkts []*pktrec.Packet) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(fileMagic); err != nil {
		return err
	}
	var hdr [10]byte
	binary.BigEndian.PutUint16(hdr[0:2], fileVersion)
	binary.BigEndian.PutUint64(hdr[2:10], uint64(len(pkts)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	buf := make([]byte, 0, flow.KeyWireSize+15)
	for _, p := range pkts {
		buf = buf[:0]
		buf = p.Flow.AppendBinary(buf)
		buf = binary.BigEndian.AppendUint32(buf, uint32(p.Bytes))
		buf = binary.BigEndian.AppendUint64(buf, p.Arrival)
		buf = binary.BigEndian.AppendUint16(buf, uint16(p.Port))
		buf = append(buf, byte(p.Queue))
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadFile reads a packet schedule from r.
func ReadFile(r io.Reader) ([]*pktrec.Packet, error) {
	br := bufio.NewReader(r)
	var hdr [14]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(hdr[0:4]) != fileMagic {
		return nil, fmt.Errorf("trace: bad magic %q", hdr[0:4])
	}
	if v := binary.BigEndian.Uint16(hdr[4:6]); v != fileVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", v)
	}
	count := binary.BigEndian.Uint64(hdr[6:14])
	const maxPackets = 1 << 31
	if count > maxPackets {
		return nil, fmt.Errorf("trace: implausible packet count %d", count)
	}
	// The header's count is a claim, not memory to reserve: a file that
	// claims a billion packets and holds six must cost six.
	pkts := make([]*pktrec.Packet, 0, min(count, 1<<16))
	rec := make([]byte, flow.KeyWireSize+15)
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(br, rec); err != nil {
			return nil, fmt.Errorf("trace: packet %d: %w", i, err)
		}
		key, rest, err := flow.DecodeKey(rec)
		if err != nil {
			return nil, err
		}
		pkts = append(pkts, &pktrec.Packet{
			Flow:    key,
			Bytes:   int(binary.BigEndian.Uint32(rest[0:4])),
			Arrival: binary.BigEndian.Uint64(rest[4:12]),
			Port:    int(binary.BigEndian.Uint16(rest[12:14])),
			Queue:   int(rest[14]),
		})
	}
	return pkts, nil
}
