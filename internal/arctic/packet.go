// Package arctic simulates the Arctic Switch Fabric, the system-area
// network of the Hyades cluster (paper §2.2).
//
// Arctic is a packet-switched, multi-stage network of radix-4 routers
// organised as a fat tree.  The simulator reproduces the properties the
// paper's communication library depends on:
//
//   - 150 MByte/sec of bandwidth per link direction, with a full
//     fat-tree bisection of 2*N*150 MByte/sec for N endpoints;
//   - less than 0.15 us of latency through a router stage (we charge
//     exactly 0.15 us), with virtual cut-through forwarding;
//   - FIFO ordering of packets sent between two endpoints along the same
//     path;
//   - two packet priorities, with the guarantee that a high-priority
//     packet is never blocked behind low-priority traffic at a link;
//   - CRC protection verified at every router stage and at the endpoint,
//     so that software sees error-free operation and only checks a 1-bit
//     status word for the catastrophic case.
package arctic

import (
	"errors"
	"fmt"
	"hash/crc32"
)

// Priority selects one of Arctic's two logical networks (Fig. 1a).
type Priority uint8

// The two Arctic priorities.
const (
	Low Priority = iota
	High
)

func (p Priority) String() string {
	if p == High {
		return "high"
	}
	return "low"
}

// Packet format constants (Fig. 1b): two 32-bit header words followed by
// a payload of 2..22 32-bit words, protected by a CRC trailer word.
const (
	MinPayloadWords = 2
	MaxPayloadWords = 22
	HeaderWords     = 2
	crcWords        = 1

	// HeaderBytes is the wire size of the routing header; cut-through
	// forwarding can begin once these bytes have arrived.
	HeaderBytes = HeaderWords * 4

	// MaxPayloadBytes is the largest payload a single packet carries.
	MaxPayloadBytes = MaxPayloadWords * 4
)

// Radix is the Arctic router radix: four down ports and four up ports.
const Radix = 4

// maxUpSteps is the largest up-phase length encodable in the 14-bit
// uproute field (3 bits of step count + 2 bits of up-port digit per
// stage); it caps fabrics at 4^5 = 1024 endpoints, far beyond the
// 16-node Hyades configuration.
const maxUpSteps = 5

// Packet is one Arctic network packet.
type Packet struct {
	Pri       Priority
	DownRoute uint16 // destination digits, 2 bits per stage, LSB = leaf stage
	UpSteps   uint8  // number of up-phase hops (0 for same leaf router)
	UpDigits  uint16 // chosen up port per up stage, 2 bits per stage
	RandomUp  bool   // hardware picks up-ports randomly (adaptive)
	Tag       uint16 // 11-bit user tag, dispatch hint for the software layer
	Payload   []uint32

	// Src and Dst are endpoint numbers.  Dst is recoverable from
	// DownRoute; both are kept explicit for bookkeeping and assertions.
	Src, Dst int

	// VI-mode bulk packets: the StarT-X DMA engines move user data in
	// packet-sized quanta, but the simulator carries the actual bytes
	// out-of-band on the final packet of a transfer instead of encoding
	// 88-byte slices into every packet.  BulkWords is the modelled
	// payload size of this packet (used for wire timing); Bulk is the
	// whole transfer's data, attached to the packet with Final set.
	BulkWords int
	Bulk      []byte
	Final     bool

	// Rmem marks a one-sided remote-memory packet (StarT-X's third
	// mechanism) whose destination is (window = Tag's low bits,
	// RmemOffset); like Bulk these are simulator bookkeeping, not
	// wire-header state.
	Rmem       bool
	RmemOffset int

	// Rel carries the reliable-channel header when the go-back-N layer
	// is active.  Like Bulk it is simulator bookkeeping riding alongside
	// the wire words; its wire cost is accounted in the tag space.
	Rel *RelHeader

	// Epoch stamps the sending NIU's communication incarnation: after a
	// node crash and recovery rollback every NIU re-synchronizes on a
	// new epoch, and traffic still in flight from before the rollback is
	// discarded at the receiver.  HB marks an unsequenced heartbeat
	// packet, consumed by dead-peer detection and never delivered to
	// software.  Both are simulator bookkeeping like Rel.
	Epoch uint32
	HB    bool

	// crc is the checksum computed at injection time.  corrupted marks
	// packets damaged by fault injection after the CRC was sealed;
	// sealed records whether crc is valid at all.
	crc       uint32
	sealed    bool
	corrupted bool

	// pooled marks a packet obtained from a Fabric freelist
	// (Fabric.AcquirePacket); the fabric recycles such packets once
	// their journey ends.  Packets constructed directly (tests, one-off
	// probes) stay unpooled and are left to the garbage collector, so a
	// caller that retains a delivered packet it built itself never sees
	// it reused under its feet.
	pooled bool
}

// RelHeader is the go-back-N protocol state attached to a packet by the
// StarT-X reliability layer.
type RelHeader struct {
	Seq    uint64   // per-(src,dst,priority) sequence number of data packets
	Ack    bool     // this packet is a cumulative acknowledgement, not data
	AckSeq uint64   // with Ack: everything below AckSeq has been received
	Chan   Priority // which priority stream the sequence number belongs to
}

// Clone returns a fresh copy of the packet for retransmission: same
// routing, payload and sequence state, but pristine (uncorrupted) and
// re-sealed, as the NIU re-reads the data from host memory.
func (p *Packet) Clone() *Packet {
	q := *p
	q.corrupted = false
	// The clone is fabric-owned from injection to delivery (the
	// retransmitting NIU never sees it again), so the fabric may pool it
	// regardless of where the original came from.
	q.pooled = true
	if p.Rel != nil {
		rel := *p.Rel
		q.Rel = &rel
	}
	q.Seal()
	return &q
}

// payloadWords returns the modelled payload size in words, honouring
// the out-of-band bulk convention.
func (p *Packet) payloadWords() int {
	if p.BulkWords > 0 {
		return p.BulkWords
	}
	return len(p.Payload)
}

// WireBytes returns the number of bytes the packet occupies on a link:
// header, payload and CRC trailer.
func (p *Packet) WireBytes() int {
	return (HeaderWords + p.payloadWords() + crcWords) * 4
}

// PayloadBytes returns the user-payload size in bytes.
func (p *Packet) PayloadBytes() int { return p.payloadWords() * 4 }

// Errors returned by header validation.
var (
	ErrPayloadSize = errors.New("arctic: payload must be 2..22 words")
	ErrBadCRC      = errors.New("arctic: CRC mismatch")
	ErrFieldRange  = errors.New("arctic: header field out of range")
)

// header0 packs priority and downroute into the first header word.
func (p *Packet) header0() uint32 {
	w := uint32(p.DownRoute)
	if p.Pri == High {
		w |= 1 << 31
	}
	return w
}

// header1 packs uproute, the random-up flag, the user tag and the size
// field into the second header word:
//
//	[31:21] up-port digits (10 bits + 1 spare)
//	[20:18] up-step count (3 bits)
//	[17]    random-up flag
//	[16:6]  user tag (11 bits)
//	[5:1]   payload size in words (5 bits)
//	[0]     spare
func (p *Packet) header1() uint32 {
	return uint32(p.UpDigits&0x3ff)<<22 |
		uint32(p.UpSteps&0x7)<<18 |
		boolBit(p.RandomUp)<<17 |
		uint32(p.Tag&0x7ff)<<6 |
		uint32(len(p.Payload)&0x1f)<<1
}

func boolBit(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// Encode serializes the packet to wire words (header, payload, CRC) and
// seals the CRC.  It returns an error if a field is out of range.
func (p *Packet) Encode() ([]uint32, error) {
	if len(p.Payload) < MinPayloadWords || len(p.Payload) > MaxPayloadWords {
		return nil, fmt.Errorf("%w: %d", ErrPayloadSize, len(p.Payload))
	}
	if p.Tag > 0x7ff || p.UpSteps > maxUpSteps || p.UpDigits > 0x3ff {
		return nil, ErrFieldRange
	}
	words := make([]uint32, 0, HeaderWords+len(p.Payload)+crcWords)
	words = append(words, p.header0(), p.header1())
	words = append(words, p.Payload...)
	p.crc = crcOfWords(words)
	p.sealed = true
	words = append(words, p.crc)
	return words, nil
}

// Decode reconstructs a packet from wire words, verifying the CRC and,
// as Encode does, the header's field ranges.
func Decode(words []uint32) (*Packet, error) {
	if len(words) < HeaderWords+MinPayloadWords+crcWords {
		return nil, fmt.Errorf("arctic: short packet (%d words)", len(words))
	}
	body := words[:len(words)-1]
	crc := words[len(words)-1]
	if crcOfWords(body) != crc {
		return nil, ErrBadCRC
	}
	h0, h1 := words[0], words[1]
	size := int(h1 >> 1 & 0x1f)
	if size < MinPayloadWords || size > MaxPayloadWords || HeaderWords+size+crcWords != len(words) {
		return nil, fmt.Errorf("%w: size field %d for %d words", ErrPayloadSize, size, len(words))
	}
	if h1>>18&0x7 > maxUpSteps {
		return nil, ErrFieldRange
	}
	p := &Packet{
		Pri:       Priority(h0 >> 31),
		DownRoute: uint16(h0 & 0xffff),
		UpDigits:  uint16(h1 >> 22 & 0x3ff),
		UpSteps:   uint8(h1 >> 18 & 0x7),
		RandomUp:  h1>>17&1 == 1,
		Tag:       uint16(h1 >> 6 & 0x7ff),
		Payload:   append([]uint32(nil), words[HeaderWords:HeaderWords+size]...),
		crc:       crc,
		sealed:    true,
	}
	p.Dst = dstFromDownRoute(p.DownRoute)
	return p, nil
}

// crcTable is the shared IEEE polynomial table (crc32.MakeTable returns
// the package-internal table for the IEEE polynomial, so this allocates
// nothing of its own).
var crcTable = crc32.MakeTable(crc32.IEEE)

// crcSlice4 holds the slicing-by-4 extension tables: crcSlice4[0] is
// crcTable itself, and crcSlice4[k][b] is the CRC contribution of byte
// b positioned k bytes before the end of a 4-byte group.  Built once at
// init from crcTable, so the folded form below is bit-identical to
// crc32.ChecksumIEEE over the little-endian wire image.
var crcSlice4 = func() [4][256]uint32 {
	var t [4][256]uint32
	t[0] = *crcTable
	for b := 0; b < 256; b++ {
		crc := t[0][b]
		for k := 1; k < 4; k++ {
			crc = t[0][byte(crc)] ^ (crc >> 8)
			t[k][b] = crc
		}
	}
	return t
}()

// crcOfWords computes the IEEE CRC-32 of a word sequence, folded the
// way wireCRC folds it.  The real Arctic link layer uses a hardware CRC;
// any strong checksum preserves the software-visible behaviour (a 1-bit
// good/bad status).
func crcOfWords(words []uint32) uint32 {
	crc := ^uint32(0)
	for _, w := range words {
		crc = crcFoldWord(crc, w)
	}
	return ^crc
}

// wireCRC computes the checksum over the words the CRC trailer covers —
// headers and payload — incrementally, without materializing the wire
// image.  Seal runs at every injection and checkCRC at every router
// stage, so this is the fabric's hottest per-packet path: the running
// CRC stays in its internal (inverted) form across the whole packet,
// and each little-endian wire word folds in via one slicing-by-4 step
// instead of four dependent table lookups.
func (p *Packet) wireCRC() uint32 {
	crc := ^uint32(0)
	crc = crcFoldWord(crc, p.header0())
	crc = crcFoldWord(crc, p.header1())
	for _, w := range p.Payload {
		crc = crcFoldWord(crc, w)
	}
	return ^crc
}

// crcFoldWord advances an internal-form (pre-inverted) CRC by one
// little-endian wire word using the slicing-by-4 tables.
func crcFoldWord(crc, w uint32) uint32 {
	crc ^= w
	return crcSlice4[3][byte(crc)] ^
		crcSlice4[2][byte(crc>>8)] ^
		crcSlice4[1][byte(crc>>16)] ^
		crcSlice4[0][byte(crc>>24)]
}

// Seal computes and stores the CRC over the packet's current wire
// words.  The fabric seals every packet at injection time; Encode seals
// as a side effect of serialization.
func (p *Packet) Seal() {
	p.crc = p.wireCRC()
	p.sealed = true
}

// checkCRC re-verifies the CRC, as every router stage and endpoint does
// in hardware.  The corrupted flag is the fast path for fault-injected
// damage; a sealed packet additionally recomputes the checksum over the
// wire words, so contents mutated after sealing are caught too.
func (p *Packet) checkCRC() bool {
	if p.corrupted {
		return false
	}
	if !p.sealed {
		return true
	}
	return p.wireCRC() == p.crc
}

// Corrupt flips the packet into the damaged state used by fault
// injection tests: its CRC no longer matches its contents.
func (p *Packet) Corrupt() { p.corrupted = true }

// Corrupted reports whether the packet was damaged in flight.
func (p *Packet) Corrupted() bool { return p.corrupted }

// dstFromDownRoute recovers the endpoint number from the full downroute
// field.  Digits are stored 2 bits per stage with the leaf stage in the
// low bits, which makes the field numerically equal to the endpoint
// number for radix-4 trees.
func dstFromDownRoute(dr uint16) int { return int(dr) }

// downRouteFor builds the downroute field for an endpoint number.
func downRouteFor(dst int) uint16 { return uint16(dst) }

// digit extracts the 2-bit digit of v at the given stage.
func digit(v, stage int) int { return v >> (2 * stage) & (Radix - 1) }
