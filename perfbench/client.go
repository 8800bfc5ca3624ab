package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"lrfcsvm/internal/retrieval"
	"lrfcsvm/internal/server"
)

// topK is the result-list length of every query and refine: the paper's
// 20-image feedback page.
const topK = 20

// client is the benchmark's HTTP client, holding one connection to the
// loopback server.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: failedLatency}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// call sends one request and decodes a 200 response into out; any other
// status is an error.
func (c *client) call(method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// timed runs f and records it as op, timed from start.
func timed(rec *recorder, op string, start time.Time, f func() error) error {
	err := f()
	rec.add(op, time.Since(start), err != nil)
	return err
}

func (c *client) query(image int) ([]server.ResultJSON, error) {
	var resp server.QueryResponse
	err := c.call(http.MethodGet, "/api/query?image="+strconv.Itoa(image)+"&k="+strconv.Itoa(topK), nil, &resp)
	return resp.Results, err
}

func (c *client) startSession(query int) (int, error) {
	var resp server.StartSessionResponse
	err := c.call(http.MethodPost, "/api/sessions", server.StartSessionRequest{Query: query}, &resp)
	return resp.SessionID, err
}

type judgment struct {
	Image    int  `json:"image"`
	Relevant bool `json:"relevant"`
}

func (c *client) judge(session int, js []judgment) error {
	req := struct {
		SessionID int        `json:"session_id"`
		Judgments []judgment `json:"judgments"`
	}{session, js}
	return c.call(http.MethodPost, "/api/sessions/judge", req, nil)
}

func (c *client) refine(session int) ([]server.ResultJSON, error) {
	var resp server.RefineResponse
	req := server.RefineRequest{SessionID: session, Scheme: string(retrieval.SchemeLRFCSVM), K: topK}
	err := c.call(http.MethodPost, "/api/sessions/refine", req, &resp)
	return resp.Results, err
}

func (c *client) commit(session int) (int, error) {
	var resp server.CommitResponse
	err := c.call(http.MethodPost, "/api/sessions/commit", server.CommitRequest{SessionID: session}, &resp)
	return resp.LogSessions, err
}

func (c *client) ingest(images [][]float64) (server.AddImagesResponse, error) {
	var resp server.AddImagesResponse
	err := c.call(http.MethodPost, "/api/images", server.AddImagesRequest{Images: images}, &resp)
	return resp, err
}

func (c *client) status() (server.StatusResponse, error) {
	var resp server.StatusResponse
	err := c.call(http.MethodGet, "/api/status", nil, &resp)
	return resp, err
}
