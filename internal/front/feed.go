package front

import (
	"errors"
	"io"

	"repro/internal/sched"
	"repro/internal/trace"
)

// feedBatch is the most parsed jobs a feed holds before handing them to its
// stream.
const feedBatch = 64

// Feed is one tenant's NDJSON job stream on its way into a Stream: the
// parse → batch → PushBatch loop shared by the HTTP feed handler and
// in-process drivers. The embedded reader exposes the stream header
// (Machines, Alpha, Jobs); Into consumes the jobs.
type Feed struct {
	*trace.NDJSONReader

	src   io.Reader
	st    *Stream
	batch []sched.Job
	err   error // the stream refused a batch: killed or draining
}

// NewFeed reads the header of the NDJSON stream r. Jobs parse in strict mode
// (trace.NDJSONReader.Strict): duplicate ids and release dips are refused at
// the line, before they reach a stream.
func NewFeed(r io.Reader) (*Feed, error) {
	f := &Feed{src: r}
	nr, err := trace.NewNDJSONReader(feedInput{f})
	if err != nil {
		return nil, err
	}
	f.NDJSONReader = nr.Strict()
	return f, nil
}

// feedInput is the feed's source as its parser sees it: every read may block
// on the producer, so it first hands over the jobs parsed so far.
type feedInput struct{ f *Feed }

func (in feedInput) Read(p []byte) (int, error) {
	if err := in.f.handOff(); err != nil {
		return 0, err
	}
	return in.f.src.Read(p)
}

// handOff pushes the parsed batch into the stream, once per batch, and
// returns the stream's refusal, which is sticky.
func (f *Feed) handOff() error {
	if len(f.batch) > 0 && f.err == nil {
		f.err = f.st.PushBatch(f.batch)
		f.batch = f.batch[:0]
	}
	return f.err
}

// Into parses the feed's jobs into st, stopping after limit of them when
// limit > 0, and returns how many it parsed. Jobs go over in batches: when
// feedBatch of them are ready, and before every read of the source, so no
// parsed job waits on the producer's next bytes. At the end of the source or
// at the limit it closes st's send side; on a parse error it aborts st and
// returns the error. A stream that refuses a batch (killed or draining) ends
// the parse quietly — st.Err says why.
func (f *Feed) Into(st *Stream, limit int) (int, error) {
	f.st, f.batch = st, make([]sched.Job, 0, feedBatch)
	n := 0
	for limit <= 0 || n < limit {
		j, err := f.Next()
		if err != nil {
			switch {
			case f.handOff() != nil:
				// Stream killed or server draining; its acks report it.
			case errors.Is(err, io.EOF):
				st.CloseSend()
			case st.Err() != nil:
				// The stream was already killed or drained and the read was
				// cut short to unblock this goroutine; the real error is the
				// stream's, not this read's.
			default:
				st.Abort()
				return n, err
			}
			return n, nil
		}
		n++
		if f.batch = append(f.batch, j); len(f.batch) == feedBatch && f.handOff() != nil {
			return n, nil
		}
	}
	if f.handOff() == nil {
		st.CloseSend()
	}
	return n, nil
}
