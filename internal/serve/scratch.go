package serve

// Pooled per-request scratch. The ingest hot path — decode a batch, route
// it to shards, await verdicts, encode the reply — must allocate nothing
// at steady state, so everything it needs lives in one *ingestScratch
// checked out of Server.scratch (a sync.Pool) per request and returned
// when the reply has been written.

// ingestScratch is one request's worth of reusable buffers.
type ingestScratch struct {
	body     []byte          // request body, either codec
	readings []Reading       // decoded batch; elements keep Value capacity
	results  []ReadingResult // per-reading verdicts in request order
	out      []byte          // encoded response frame
	route    routeScratch    // shard routing state
}

// routeScratch is the per-request routing state: sub-batch builders, the
// scatter index, per-shard verdict buffers handed to the shard goroutines,
// and persistent buffered reply channels (capacity 1, so a shard never
// blocks replying and the channel can be reused round after round).
type routeScratch struct {
	byShard  [][]Reading
	pos      [][]int
	verdicts [][]Verdict
	accepted []bool
	reqs     []shardReq
	replies  []chan shardResp
}

func newIngestScratch(shards int) *ingestScratch {
	sc := &ingestScratch{}
	sc.route = routeScratch{
		byShard:  make([][]Reading, shards),
		pos:      make([][]int, shards),
		verdicts: make([][]Verdict, shards),
		accepted: make([]bool, shards),
		reqs:     make([]shardReq, shards),
		replies:  make([]chan shardResp, shards),
	}
	for i := range sc.route.replies {
		sc.route.replies[i] = make(chan shardResp, 1)
	}
	return sc
}

// getScratch checks a scratch out of the pool, building a fresh one when
// the pool is empty or the pooled scratch was sized for a different shard
// count (only possible for hand-constructed test servers).
func (s *Server) getScratch() *ingestScratch {
	if sc, ok := s.scratch.Get().(*ingestScratch); ok && len(sc.route.replies) == len(s.shards) {
		return sc
	}
	return newIngestScratch(len(s.shards))
}

// growVerdicts returns v resized to n, reusing its backing array.
func growVerdicts(v []Verdict, n int) []Verdict {
	if cap(v) < n {
		return make([]Verdict, n)
	}
	return v[:n]
}

// growResults returns r resized to n, reusing its backing array.
func growResults(r []ReadingResult, n int) []ReadingResult {
	if cap(r) < n {
		return make([]ReadingResult, n)
	}
	return r[:n]
}
