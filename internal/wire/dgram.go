package wire

import (
	"encoding/binary"
	"fmt"
)

// Datagram format v2 — the coalesced framing the UDP transport speaks.
//
// One datagram carries zero or more frames for a single directed link,
// plus (optionally) a piggybacked cumulative ACK for the reverse
// direction. The header is fixed-width so the receive path parses it
// with plain offsets; the ACK slot is always present and is valid only
// when FlagAck is set, which keeps every frame at a stable offset and
// lets the sender backfill the ACK after the frames are packed.
//
//	header (18 bytes):
//	  [0]     version  = 2
//	  [1]     flags    bit0 FlagAck (ack field valid); every other bit 0
//	  [2:6]   from     uint32 BE (sender node)
//	  [6:10]  to       uint32 BE (receiver node)
//	  [10:18] ack      uint64 BE cumulative ack for the to→from link
//	frames (0+), each:
//	  [0:8]   seq      uint64 BE (per-link FIFO sequence)
//	  [8:16]  mseq     uint64 BE (per-message dedup id)
//	  [16:24] sentAt   int64  BE unix nanos (RTT sampling)
//	  [24:28] paylen   uint32 BE
//	  [28:]   payload  (codec bytes, see wire.go)
//
// A header with no frames carries only the ACK. A header with a flag bit
// other than FlagAck does not parse: no frame of it is decoded.
//
// Train format v3 — what a socket write carries. The transport hosts many
// nodes behind one socket, so one UDP datagram is a train of v2 link
// datagrams ("sections"), each for its own directed link, all addressed
// to nodes behind the same destination socket:
//
//	[0]     version = 3
//	sections (1+), each:
//	  [0:2]   length   uint16 BE (≥ DgramHeaderLen)
//	  [2:]    one v2 link datagram of that length
const (
	TrainVersion = 3

	DgramVersion   = 2
	DgramHeaderLen = 18
	FrameHeaderLen = 28

	FlagAck = 1 << 0
)

// AppendDgramHeader appends a v2 header with no ACK and no frames.
func AppendDgramHeader(buf []byte, from, to uint32) []byte {
	buf = append(buf, DgramVersion, 0)
	buf = binary.BigEndian.AppendUint32(buf, from)
	buf = binary.BigEndian.AppendUint32(buf, to)
	return binary.BigEndian.AppendUint64(buf, 0)
}

// SetDgramAck backfills the cumulative ACK into an already-built
// datagram (dgram[0] must be the header start) and sets FlagAck.
func SetDgramAck(dgram []byte, ack uint64) {
	dgram[1] |= FlagAck
	binary.BigEndian.PutUint64(dgram[10:18], ack)
}

// AppendFrame appends one frame (header + payload) to a datagram under
// construction.
func AppendFrame(buf []byte, seq, mseq uint64, sentAt int64, payload []byte) []byte {
	buf = binary.BigEndian.AppendUint64(buf, seq)
	buf = binary.BigEndian.AppendUint64(buf, mseq)
	buf = binary.BigEndian.AppendUint64(buf, uint64(sentAt))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	return append(buf, payload...)
}

// BackfillFrameLen patches the paylen field of the frame starting at
// frameStart, for senders that AppendFrame with an empty payload and
// encode it in place directly after the header.
func BackfillFrameLen(buf []byte, frameStart, paylen int) {
	binary.BigEndian.PutUint32(buf[frameStart+24:frameStart+28], uint32(paylen))
}

// DgramHeader is the parsed fixed header of one datagram.
type DgramHeader struct {
	Flags byte
	From  uint32
	To    uint32
	// Ack is the piggybacked cumulative ack; valid only when
	// Flags&FlagAck is set.
	Ack uint64
}

// HasAck reports whether the ACK field is valid.
func (h DgramHeader) HasAck() bool { return h.Flags&FlagAck != 0 }

// ParseDgram splits a received datagram into its header and the frame
// region (possibly empty for a standalone ACK). Unknown flag bits are an
// error.
func ParseDgram(pkt []byte) (DgramHeader, []byte, error) {
	if len(pkt) < DgramHeaderLen {
		return DgramHeader{}, nil, fmt.Errorf("wire: datagram too short (%d bytes)", len(pkt))
	}
	if pkt[0] != DgramVersion {
		return DgramHeader{}, nil, fmt.Errorf("wire: datagram version %d, want %d", pkt[0], DgramVersion)
	}
	if pkt[1]&^FlagAck != 0 {
		return DgramHeader{}, nil, fmt.Errorf("wire: datagram flags %#02x, only FlagAck is defined", pkt[1])
	}
	h := DgramHeader{
		Flags: pkt[1],
		From:  binary.BigEndian.Uint32(pkt[2:6]),
		To:    binary.BigEndian.Uint32(pkt[6:10]),
		Ack:   binary.BigEndian.Uint64(pkt[10:18]),
	}
	return h, pkt[DgramHeaderLen:], nil
}

// FrameView is one parsed frame; Payload aliases the datagram buffer.
type FrameView struct {
	Seq     uint64
	Mseq    uint64
	SentAt  int64
	Payload []byte
}

// NextFrame parses the first frame of body and returns it with the
// remaining bytes. Call with the region from ParseDgram and iterate
// until empty.
func NextFrame(body []byte) (FrameView, []byte, error) {
	if len(body) < FrameHeaderLen {
		return FrameView{}, nil, fmt.Errorf("wire: truncated frame header (%d bytes)", len(body))
	}
	paylen := binary.BigEndian.Uint32(body[24:28])
	end := FrameHeaderLen + int(paylen)
	if len(body) < end {
		return FrameView{}, nil, fmt.Errorf("wire: frame payload truncated (%d of %d bytes)", len(body)-FrameHeaderLen, paylen)
	}
	f := FrameView{
		Seq:     binary.BigEndian.Uint64(body[0:8]),
		Mseq:    binary.BigEndian.Uint64(body[8:16]),
		SentAt:  int64(binary.BigEndian.Uint64(body[16:24])),
		Payload: body[FrameHeaderLen:end],
	}
	return f, body[end:], nil
}

// AppendSection appends one v2 link datagram to a train under
// construction, opening the train (version byte) when it is empty. The
// datagram must fit the 16-bit length field.
func AppendSection(train, dgram []byte) []byte {
	if len(train) == 0 {
		train = append(train, TrainVersion)
	}
	train = binary.BigEndian.AppendUint16(train, uint16(len(dgram)))
	return append(train, dgram...)
}

// NextSection splits the first link datagram off the section region of a
// train (everything after the version byte) and returns it with the
// remaining bytes; the datagram aliases body. Iterate until empty.
func NextSection(body []byte) (dgram, rest []byte, err error) {
	if len(body) < 2 {
		return nil, nil, fmt.Errorf("wire: truncated section length (%d bytes)", len(body))
	}
	n := int(binary.BigEndian.Uint16(body))
	if n < DgramHeaderLen {
		return nil, nil, fmt.Errorf("wire: section of %d bytes is shorter than a datagram header", n)
	}
	if len(body)-2 < n {
		return nil, nil, fmt.Errorf("wire: section truncated (%d of %d bytes)", len(body)-2, n)
	}
	return body[2 : 2+n], body[2+n:], nil
}
