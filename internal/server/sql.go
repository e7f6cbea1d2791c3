package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
	"unicode/utf8"

	"fuzzydup/internal/sqldb"
	"fuzzydup/internal/sqlwire"
)

// The SQL product surface: a MySQL wire-protocol listener whose
// executor runs each connection's queries through a private sqldb.DB
// wired to the shared sqlCatalog. Per-connection DBs make the
// single-threaded engine safe under concurrent connections and give
// each session its own scratch-table namespace (CREATE TABLE / SELECT
// INTO live and die with the connection); the live server state comes
// in through the catalog's virtual tables, which are concurrency-safe.

// sqlExecutor implements sqlwire.Executor.
type sqlExecutor struct {
	srv *Server

	mu  sync.Mutex
	dbs map[uint32]*sqldb.DB // session ID -> per-connection engine
}

func newSQLExecutor(srv *Server) *sqlExecutor {
	return &sqlExecutor{srv: srv, dbs: make(map[uint32]*sqldb.DB)}
}

// dbFor returns the session's engine, creating it on first use.
func (x *sqlExecutor) dbFor(sess *sqlwire.Session) *sqldb.DB {
	x.mu.Lock()
	defer x.mu.Unlock()
	db := x.dbs[sess.ID]
	if db == nil {
		db = sqldb.Open()
		db.Catalog = x.srv.sqlCatalog
		db.MaxRows = x.srv.cfg.SQLMaxRows
		x.dbs[sess.ID] = db
	}
	return db
}

// drop releases a closed session's engine.
func (x *sqlExecutor) drop(sess *sqlwire.Session) {
	x.mu.Lock()
	delete(x.dbs, sess.ID)
	x.mu.Unlock()
}

// Query implements sqlwire.Executor.
func (x *sqlExecutor) Query(ctx context.Context, sess *sqlwire.Session, query string) (*sqlwire.Resultset, error) {
	res, err := x.dbFor(sess).ExecContext(ctx, query)
	if err != nil {
		if errors.Is(err, sqldb.ErrMaxRows) {
			return nil, &sqlwire.SQLError{
				Code:    sqlwire.ErrCodeMaxRows,
				Message: fmt.Sprintf("max_rows_exceeded: %v (cap %d rows; narrow the query)", err, x.srv.cfg.SQLMaxRows),
			}
		}
		return nil, err
	}
	return toWireResultset(res), nil
}

// toWireResultset maps a sqldb result onto the wire shape. Column wire
// types are inferred from the first non-NULL value of each column
// (VAR_STRING when a column is all NULL — the text protocol renders
// every value as a string anyway, so the type byte is advisory).
func toWireResultset(res *sqldb.Result) *sqlwire.Resultset {
	if len(res.Cols) == 0 {
		return &sqlwire.Resultset{Affected: uint64(res.Affected)}
	}
	out := &sqlwire.Resultset{Cols: make([]sqlwire.Column, len(res.Cols))}
	for i, name := range res.Cols {
		typ := sqlwire.TypeVarString
		for _, row := range res.Rows {
			switch row[i].Kind {
			case sqldb.KindInt:
				typ = sqlwire.TypeLongLong
			case sqldb.KindFloat:
				typ = sqlwire.TypeDouble
			case sqldb.KindBool:
				typ = sqlwire.TypeTiny
			case sqldb.KindText:
				typ = sqlwire.TypeVarString
			default:
				continue // NULL: keep looking
			}
			break
		}
		out.Cols[i] = sqlwire.Column{Name: name, Type: typ}
	}
	out.Rows = make([][]sqlwire.Cell, len(res.Rows))
	for r, row := range res.Rows {
		cells := make([]sqlwire.Cell, len(row))
		for i, v := range row {
			if v.Kind == sqldb.KindNull {
				cells[i] = sqlwire.NullCell()
			} else {
				cells[i] = sqlwire.StringCell(v.String())
			}
		}
		out.Rows[r] = cells
	}
	return out
}

// maxSlowQueryLen bounds the query text a slow-op record carries.
const maxSlowQueryLen = 512

// newSQLServer assembles the wire server: executor, auth, and the
// metrics/slow-op hooks.
func (s *Server) newSQLServer() *sqlwire.Server {
	exec := newSQLExecutor(s)
	return &sqlwire.Server{
		Exec:     exec,
		User:     s.cfg.SQLUser,
		Password: s.cfg.SQLPassword,
		Logger:   s.cfg.Logger,
		Hooks: sqlwire.Hooks{
			OnConnect: func(sess *sqlwire.Session) {
				s.metrics.sqlConnections.Add(1)
			},
			OnDisconnect: func(sess *sqlwire.Session) {
				s.metrics.sqlConnections.Add(-1)
				exec.drop(sess)
			},
			OnQuery: func(sess *sqlwire.Session, query string, d time.Duration, rows int, err error) {
				s.metrics.sqlQueries.Add(1)
				s.metrics.sqlQueryDuration.ObserveDuration(d)
				if err != nil {
					s.metrics.sqlErrors.Add(1)
				} else {
					s.metrics.sqlRowsReturned.Add(int64(rows))
				}
				s.slowOps.note("sql", d, func() SlowOp {
					q := query
					if len(q) > maxSlowQueryLen {
						// Cut at the last rune start at or before the
						// limit, so the record stays valid UTF-8.
						cut := maxSlowQueryLen
						for cut > 0 && !utf8.RuneStart(q[cut]) {
							cut--
						}
						q = q[:cut] + "…"
					}
					op := SlowOp{
						Query:     q,
						RequestID: fmt.Sprintf("sql-conn-%d", sess.ID),
						Counters:  map[string]int64{"rows": int64(rows)},
					}
					if err != nil {
						op.Error = err.Error()
					}
					return op
				})
			},
		},
	}
}

// StartSQL serves the MySQL wire protocol on lis until Shutdown. The
// listener is consumed (closed by the wire server's shutdown).
func (s *Server) StartSQL(lis net.Listener) {
	s.sqlMu.Lock()
	s.sqlSrv = s.newSQLServer()
	srv := s.sqlSrv
	s.sqlMu.Unlock()
	go func() {
		if err := srv.Serve(lis); err != nil {
			s.cfg.Logger.Debug("sql listener closed", "err", err.Error())
		}
	}()
	s.cfg.Logger.Info("sql listener started", "addr", lis.Addr().String())
}

// shutdownSQL drains the wire server (in-flight queries get until ctx's
// deadline). A no-op when no SQL listener was started.
func (s *Server) shutdownSQL(ctx context.Context) error {
	s.sqlMu.Lock()
	srv := s.sqlSrv
	s.sqlSrv = nil
	s.sqlMu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Shutdown(ctx)
}
