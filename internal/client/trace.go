package client

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/obs"
)

// CollectTrace fetches GET /v1/traces/{traceID} from the client's
// current endpoint — after Submit, the replica that accepted the job
// and so the only one holding its spans — and renders them as a
// Perfetto-loadable Chrome trace_event file whose process row is
// labeled with that endpoint's base URL. A replica that holds no spans
// for the trace answers 404, which is returned as a StatusError.
func (c *Client) CollectTrace(ctx context.Context, traceID string) ([]byte, error) {
	if traceID == "" {
		return nil, fmt.Errorf("collect trace: empty trace ID")
	}
	base := c.base()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		base+"/v1/traces/"+traceID, nil)
	if err != nil {
		return nil, err
	}
	c.stamp(req)
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("collect trace %s from %s: %w",
			traceID, base, &StatusError{Code: resp.StatusCode, Body: string(body)})
	}
	var rt struct {
		Spans []*obs.Span `json:"spans"`
	}
	if err := json.Unmarshal(body, &rt); err != nil {
		return nil, fmt.Errorf("decode trace from %s: %w", base, err)
	}
	return obs.ChromeExport(base, rt.Spans)
}
