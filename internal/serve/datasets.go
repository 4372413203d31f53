package serve

import (
	"fmt"
	"io"
	"mime"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/ingest"
	"repro/internal/trace"
)

// datasets.go is the dynamic dataset onboarding surface (docs/DATA.md):
// POST /v1/datasets ingests a CSV/JSON body (raw or multipart) into the
// server's catalog through its ingest.Registry, generating the verification
// surface; GET lists or inspects datasets; DELETE removes one. In the
// sharded tier the coordinator fans these routes out so every replica holds
// the same catalog and ring routing stays deterministic (a claim over an
// ingested table verifies identically whichever replica owns its key).

// maxDatasetBody caps an ingestion request body. It is deliberately larger
// than maxBodyBytes (datasets are data, not claim text) and one byte past
// the largest ingest budget this server would read anyway, so the ingest
// layer — not the transport — decides where to truncate.
const maxDatasetBody = ingest.DefaultMaxBytes + 1

// DatasetResponse answers POST /v1/datasets and GET /v1/datasets/{name}.
type DatasetResponse struct {
	// Dataset is the ingestion summary (schema, row counts, sampling
	// decision, fingerprint).
	Dataset *ingest.Result `json:"dataset"`
	// Surface is the generated verification surface; omitted from list
	// entries.
	Surface *ingest.Surface `json:"surface,omitempty"`
}

// DatasetListResponse answers GET /v1/datasets in ingestion order.
type DatasetListResponse struct {
	Datasets []*ingest.Result `json:"datasets"`
}

// DatasetDeleteResponse answers DELETE /v1/datasets/{name}.
type DatasetDeleteResponse struct {
	Deleted string `json:"deleted"`
}

// datasetOptions reads the ingestion options of one request from URL query
// parameters (raw bodies) or multipart form values, which share names:
// name, format, sample_rows, max_bytes, seed.
func datasetOptions(get func(string) string) (ingest.Options, error) {
	opts := ingest.Options{
		Table:  strings.TrimSpace(get("name")),
		Format: get("format"),
	}
	if opts.Table == "" {
		return opts, fmt.Errorf("dataset name is required (query parameter or form value %q)", "name")
	}
	for _, p := range []struct {
		key string
		dst func(int64)
	}{
		{"sample_rows", func(v int64) { opts.SampleRows = int(v) }},
		{"max_bytes", func(v int64) { opts.MaxBytes = v }},
		{"seed", func(v int64) { opts.Seed = v }},
	} {
		raw := get(p.key)
		if raw == "" {
			continue
		}
		v, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			return opts, fmt.Errorf("%s must be an integer, got %q", p.key, raw)
		}
		p.dst(v)
	}
	return opts, nil
}

// handleDatasetCreate answers POST /v1/datasets. Two body shapes are
// accepted: multipart/form-data with the data under the "file" field and
// options as form values, or the raw CSV/NDJSON/JSON bytes with options as
// query parameters.
func (s *Server) handleDatasetCreate(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		s.met.inc(&s.met.rejectedDraining)
		writeError(w, http.StatusServiceUnavailable, CodeDraining, "server is draining", 0)
		return
	}
	var (
		opts ingest.Options
		body io.Reader
		err  error
	)
	mediaType, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
	if mediaType == "multipart/form-data" {
		mr, ferr := r.MultipartReader()
		if ferr != nil {
			badRequest(s.met, w, ferr.Error())
			return
		}
		// Walk parts in order, collecting option values until the file part;
		// options must precede the file in the form for streaming's sake.
		fields := map[string]string{}
		var filePart io.Reader
		for filePart == nil {
			part, perr := mr.NextPart()
			if perr == io.EOF {
				break
			}
			if perr != nil {
				badRequest(s.met, w, perr.Error())
				return
			}
			if part.FormName() == "file" {
				filePart = part
				break
			}
			val, verr := io.ReadAll(io.LimitReader(part, 1024))
			if verr != nil {
				badRequest(s.met, w, verr.Error())
				return
			}
			fields[part.FormName()] = string(val)
		}
		if filePart == nil {
			badRequest(s.met, w, `multipart body needs a "file" field (after any option fields)`)
			return
		}
		opts, err = datasetOptions(func(k string) string {
			if v, ok := fields[k]; ok {
				return v
			}
			return r.URL.Query().Get(k)
		})
		body = filePart
	} else {
		opts, err = datasetOptions(r.URL.Query().Get)
		body = io.LimitReader(r.Body, maxDatasetBody)
	}
	if err != nil {
		badRequest(s.met, w, err.Error())
		return
	}

	ds, err := s.cfg.Datasets.IngestFrom(body, opts)
	if err != nil {
		badRequest(s.met, w, err.Error())
		return
	}
	if t := s.cfg.Tracer; t.Enabled() {
		t.Record(trace.Span{
			Key:    trace.Key{Doc: s.cfg.DocID, Method: "ingest"},
			Kind:   trace.KindIngestSample,
			Detail: ds.Info.SampleDetail(),
		})
	}
	writeJSON(w, http.StatusOK, DatasetResponse{Dataset: ds.Info, Surface: ds.Surface})
}

// handleDatasetList answers GET /v1/datasets with the registered datasets'
// summaries, in ingestion order.
func (s *Server) handleDatasetList(w http.ResponseWriter, r *http.Request) {
	list := s.cfg.Datasets.List()
	out := DatasetListResponse{Datasets: make([]*ingest.Result, 0, len(list))}
	for _, ds := range list {
		out.Datasets = append(out.Datasets, ds.Info)
	}
	writeJSON(w, http.StatusOK, out)
}

// handleDatasetGet answers GET /v1/datasets/{name} with the full dataset
// record, surface included.
func (s *Server) handleDatasetGet(w http.ResponseWriter, r *http.Request) {
	ds := s.cfg.Datasets.Get(r.PathValue("name"))
	if ds == nil {
		writeError(w, http.StatusNotFound, CodeNotFound, "no dataset with that name", 0)
		return
	}
	writeJSON(w, http.StatusOK, DatasetResponse{Dataset: ds.Info, Surface: ds.Surface})
}

// handleDatasetDelete answers DELETE /v1/datasets/{name}. Base tables (the
// -csv fixtures) are not datasets and cannot be deleted here.
func (s *Server) handleDatasetDelete(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		s.met.inc(&s.met.rejectedDraining)
		writeError(w, http.StatusServiceUnavailable, CodeDraining, "server is draining", 0)
		return
	}
	name := r.PathValue("name")
	ok, err := s.cfg.Datasets.Delete(name)
	if err != nil {
		s.met.inc(&s.met.internalErrors)
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error(), 0)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, "no dataset with that name", 0)
		return
	}
	writeJSON(w, http.StatusOK, DatasetDeleteResponse{Deleted: name})
}
