package fabric

import (
	"errors"
	"testing"
)

func stageInto(rb *RoundBuffer, w int, msgs ...Msg) {
	sb := rb.Sender(w)
	for _, m := range msgs {
		sb.Put(m.To, m.Words...)
	}
}

func TestRoundBufferDeliverSortsLikeSortInbox(t *testing.T) {
	rb := AcquireRoundBuffer(4)
	defer ReleaseRoundBuffer(rb)
	// Worker 2 sends two messages to 0 out of payload order; worker 1 sends
	// one; delivery must be sender-sorted with equal-sender runs ordered by
	// lexicographic payload.
	stageInto(rb, 2, Msg{To: 0, Words: []uint64{9, 1}}, Msg{To: 0, Words: []uint64{3}})
	stageInto(rb, 1, Msg{To: 0, Words: []uint64{7}})
	in, stats, err := rb.Deliver(DeliverOpts{})
	if err != nil {
		t.Fatal(err)
	}
	got := in[0]
	if len(got) != 3 {
		t.Fatalf("inbox 0 has %d msgs, want 3", len(got))
	}
	if got[0].From != 1 || got[0].Words[0] != 7 {
		t.Fatalf("msg 0: %+v", got[0])
	}
	if got[1].From != 2 || got[1].Words[0] != 3 {
		t.Fatalf("msg 1 (payload-sorted run): %+v", got[1])
	}
	if got[2].From != 2 || got[2].Words[0] != 9 || got[2].Words[1] != 1 {
		t.Fatalf("msg 2: %+v", got[2])
	}
	if stats.TotalWords != 4 || stats.MaxSendLoad != 3 || stats.MaxRecvLoad != 4 {
		t.Fatalf("stats: %+v", stats)
	}
}

func TestRoundBufferPairBudget(t *testing.T) {
	rb := AcquireRoundBuffer(3)
	defer ReleaseRoundBuffer(rb)
	stageInto(rb, 0, Msg{To: 1, Words: []uint64{1, 2}}, Msg{To: 1, Words: []uint64{3}})
	_, _, err := rb.Deliver(DeliverOpts{PairWords: 2})
	var re *RouteError
	if !errors.As(err, &re) || re.OutOfRange || re.From != 0 || re.To != 1 || re.Words != 3 {
		t.Fatalf("want pair-budget RouteError(0→1, 3 words), got %v", err)
	}
}

func TestRoundBufferOutOfRange(t *testing.T) {
	rb := AcquireRoundBuffer(2)
	defer ReleaseRoundBuffer(rb)
	stageInto(rb, 1, Msg{To: 5, Words: []uint64{1}})
	_, _, err := rb.Deliver(DeliverOpts{})
	var re *RouteError
	if !errors.As(err, &re) || !re.OutOfRange || re.From != 1 || re.To != 5 {
		t.Fatalf("want out-of-range RouteError(1→5), got %v", err)
	}
}

func TestRoundBufferGroupedLoads(t *testing.T) {
	rb := AcquireRoundBuffer(4)
	defer ReleaseRoundBuffer(rb)
	groupOf := []int{0, 0, 1, 1}
	// 0→1 intra-group (free), 0→2 cross (2 words), 3→0 cross (1 word).
	stageInto(rb, 0, Msg{To: 1, Words: []uint64{5}}, Msg{To: 2, Words: []uint64{6, 7}})
	stageInto(rb, 3, Msg{To: 0, Words: []uint64{8}})
	in, stats, err := rb.Deliver(DeliverOpts{GroupOf: groupOf, Groups: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalWords != 3 {
		t.Fatalf("total = %d, want 3 (intra-group traffic free)", stats.TotalWords)
	}
	if stats.SendLoad[0] != 2 || stats.SendLoad[1] != 1 || stats.RecvLoad[0] != 1 || stats.RecvLoad[1] != 2 {
		t.Fatalf("loads: send=%v recv=%v", stats.SendLoad, stats.RecvLoad)
	}
	// Intra-group message still delivered.
	if len(in[1]) != 1 || in[1][0].Words[0] != 5 {
		t.Fatalf("intra-group message not delivered: %+v", in[1])
	}
}

// TestRoundBufferWideLocators drives a frame whose payload offset lies past
// the packed-locator boundary. The packed form truncates offsets to 32 bits
// (sender<<32 | uint32(offset)), which silently scrambles delivery once a
// sender stages ≥2³² words in one round; lowering the boundary lets the
// test construct an out-of-range offset without staging 32 GiB.
func TestRoundBufferWideLocators(t *testing.T) {
	old := locOffsetLimit
	locOffsetLimit = 8
	defer func() { locOffsetLimit = old }()

	rb := AcquireRoundBuffer(3)
	defer ReleaseRoundBuffer(rb)
	// Sender 1's arena: 3 frames of 4-word payloads = 15 words, so the third
	// frame's payload starts at offset 11 ≥ the lowered boundary. With the
	// packed path forced (offset % 8 semantics) the third frame would
	// materialize from the wrong arena position.
	want := [][]uint64{{10, 11, 12, 13}, {20, 21, 22, 23}, {30, 31, 32, 33}}
	for _, wds := range want {
		rb.Sender(1).Put(2, wds...)
	}
	rb.Sender(0).Put(2, 99)
	in, _, err := rb.Deliver(DeliverOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(in[2]) != 4 {
		t.Fatalf("inbox 2 has %d msgs, want 4", len(in[2]))
	}
	if in[2][0].From != 0 || in[2][0].Words[0] != 99 {
		t.Fatalf("msg 0: %+v", in[2][0])
	}
	for i, wds := range want {
		m := in[2][i+1]
		if m.From != 1 {
			t.Fatalf("msg %d from %d, want 1", i+1, m.From)
		}
		for j, x := range wds {
			if m.Words[j] != x {
				t.Fatalf("msg %d word %d = %d, want %d (offset past the packed boundary scrambled)", i+1, j, m.Words[j], x)
			}
		}
	}
}

// TestRoundBufferReuseClearsStaleInboxes pins the live-work delivery
// invariant: a destination touched in one round and idle in the next must
// read an empty inbox, even though per-destination state is no longer
// rebuilt from scratch each round.
func TestRoundBufferReuseClearsStaleInboxes(t *testing.T) {
	rb := AcquireRoundBuffer(4)
	defer ReleaseRoundBuffer(rb)
	stageInto(rb, 0, Msg{To: 3, Words: []uint64{7}})
	in, _, err := rb.Deliver(DeliverOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(in[3]) != 1 {
		t.Fatalf("round 1 inbox 3 has %d msgs, want 1", len(in[3]))
	}
	// Next round on the same buffer (backends re-stage every sender).
	for w := 0; w < 4; w++ {
		rb.send[w].reset(w)
	}
	stageInto(rb, 2, Msg{To: 1, Words: []uint64{8}})
	in, _, err = rb.Deliver(DeliverOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(in[3]) != 0 {
		t.Fatalf("round 2 inbox 3 has %d stale msgs, want 0", len(in[3]))
	}
	if len(in[1]) != 1 || in[1][0].Words[0] != 8 {
		t.Fatalf("round 2 inbox 1: %+v", in[1])
	}
}

// stagedFrames decodes a SendBuf's arena back into messages, in staging
// order.
func stagedFrames(sb *SendBuf) []Msg {
	var out []Msg
	for i := 0; i < len(sb.buf); {
		to, nw := unpackHeader(sb.buf[i])
		lo := i + frameHeader
		out = append(out, Msg{To: to, From: sb.from, Words: sb.buf[lo : lo+nw]})
		i = lo + nw
	}
	return out
}

func TestSendBufBeginGrowthKeepsEarlierPayloads(t *testing.T) {
	var sb SendBuf
	sb.reset(0)
	p1 := sb.Begin(1, 2)
	p1[0], p1[1] = 11, 12
	// Force growth several times; earlier frames must stay intact in buf.
	for i := 0; i < 64; i++ {
		p := sb.Begin(1, 17)
		for j := range p {
			p[j] = uint64(i)
		}
	}
	msgs := stagedFrames(&sb)
	if len(msgs) != 65 {
		t.Fatalf("got %d msgs", len(msgs))
	}
	if msgs[0].Words[0] != 11 || msgs[0].Words[1] != 12 {
		t.Fatalf("first frame corrupted after growth: %+v", msgs[0])
	}
}
