"""Stdlib HTTP status endpoint + minimal dashboard over a :class:`RunMonitor`.

``MonitorServer`` wraps :class:`http.server.ThreadingHTTPServer` in a daemon
thread so it can sit next to a running fleet without new dependencies or any
effect on the simulation (readers only ever see monitor snapshots).  JSON
routes come from :data:`repro.obs.routes.ROUTES`; ``/`` serves one embedded
HTML page that polls ``/api/status`` and renders progress, the codec
trajectories and the per-client table client-side.

Typical use::

    monitor = RunMonitor()
    with MonitorServer(monitor, port=0) as server:   # port=0 → ephemeral
        print(f"dashboard at http://127.0.0.1:{server.port}/")
        runtime = FederatedRuntime(config, monitor=monitor)
        runtime.run()

or, from the CLI, ``python -m repro.cli fl --monitor-port 8700``.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.obs.routes import ROUTES

DASHBOARD_HTML = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>repro fleet monitor</title>
<style>
  body { font-family: ui-monospace, Menlo, Consolas, monospace; margin: 2rem;
         background: #101418; color: #d8dee4; }
  h1 { font-size: 1.2rem; } h2 { font-size: 1rem; margin-top: 1.5rem; }
  .cards { display: flex; gap: 1rem; flex-wrap: wrap; }
  .card { background: #1b2128; border: 1px solid #2c343d; border-radius: 6px;
          padding: 0.7rem 1rem; min-width: 9rem; }
  .card .label { font-size: 0.7rem; color: #8b97a3; text-transform: uppercase; }
  .card .value { font-size: 1.3rem; }
  table { border-collapse: collapse; margin-top: 0.5rem; }
  th, td { border: 1px solid #2c343d; padding: 0.25rem 0.6rem;
           font-size: 0.8rem; text-align: right; }
  th { background: #1b2128; color: #8b97a3; }
  #bar { height: 0.6rem; background: #1b2128; border-radius: 3px;
         overflow: hidden; margin: 0.5rem 0 1rem; }
  #bar > div { height: 100%; background: #4c9f70; width: 0; }
  .warn { color: #e5c07b; } .bad { color: #e06c75; }
</style>
</head>
<body>
<h1>repro fleet monitor — <span id="status">connecting…</span></h1>
<div id="bar"><div id="barfill"></div></div>
<div class="cards" id="cards"></div>
<h2>Rounds (last 20)</h2>
<table id="rounds"></table>
<h2>Clients</h2>
<table id="clients"></table>
<script>
function fmt(x, d) {
  if (x === null || x === undefined) return "-";
  return (typeof x === "number") ? x.toFixed(d === undefined ? 3 : d) : x;
}
function card(label, value, cls) {
  return '<div class="card"><div class="label">' + label +
         '</div><div class="value ' + (cls || "") + '">' + value + "</div></div>";
}
function render(s) {
  document.getElementById("status").textContent = s.status;
  var p = s.progress;
  document.getElementById("barfill").style.width =
    Math.round(100 * (p.fraction || 0)) + "%";
  var last = s.rounds.length ? s.rounds[s.rounds.length - 1] : null;
  var ckpt = s.checkpoint || {};
  var util = last ? last.max_bound_utilization : 0;
  var cards =
    card("round", p.rounds_completed + " / " + p.target_rounds) +
    card("accuracy", last ? fmt(last.accuracy, 4) : "-") +
    card("ratio", last ? fmt(last.ratio, 2) + "x" : "-") +
    card("bound use", fmt(util, 3),
         util > 1 ? "bad" : (util > 0.9 ? "warn" : "")) +
    card("ckpt age", ckpt.age_seconds !== undefined ? fmt(ckpt.age_seconds, 0) + "s" : "-") +
    card("faults", (s.faults || []).length, (s.faults || []).length ? "warn" : "");
  document.getElementById("cards").innerHTML = cards;
  var rh = "<tr><th>round</th><th>acc</th><th>loss</th><th>part</th>" +
           "<th>drop</th><th>strag</th><th>ratio</th><th>bound use</th></tr>";
  s.rounds.slice(-20).forEach(function (r) {
    rh += "<tr><td>" + r.round + "</td><td>" + fmt(r.accuracy, 4) +
          "</td><td>" + fmt(r.loss, 4) + "</td><td>" + r.participants +
          "</td><td>" + r.dropped + "</td><td>" + r.stragglers +
          "</td><td>" + fmt(r.ratio, 2) + "</td><td>" +
          fmt(r.max_bound_utilization, 3) + "</td></tr>";
  });
  document.getElementById("rounds").innerHTML = rh;
  var ch = "<tr><th>client</th><th>rounds</th><th>drops</th><th>strag</th>" +
           "<th>max turnaround</th><th>last ratio</th><th>bound use</th></tr>";
  s.clients.forEach(function (c) {
    ch += "<tr><td>" + c.client_id + "</td><td>" + c.rounds + "</td><td>" +
          c.dropped + "</td><td>" + c.stragglers + "</td><td>" +
          fmt(c.max_turnaround_seconds, 2) + "s</td><td>" +
          fmt(c.last_ratio, 2) + "</td><td>" +
          fmt(c.max_bound_utilization, 3) + "</td></tr>";
  });
  document.getElementById("clients").innerHTML = ch;
}
function poll() {
  fetch("/api/status").then(function (r) { return r.json(); })
    .then(render).catch(function () {
      document.getElementById("status").textContent = "unreachable";
    });
}
poll();
setInterval(poll, 1000);
</script>
</body>
</html>
"""


class _MonitorRequestHandler(BaseHTTPRequestHandler):
    """Dispatches GETs to :data:`ROUTES`; ``/`` serves the dashboard."""

    # Set by MonitorServer before the server starts.
    monitor = None

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0]
        if path in ("/", "/index.html"):
            body = DASHBOARD_HTML.encode("utf-8")
            self._respond(200, "text/html; charset=utf-8", body)
            return
        handler = ROUTES.get(path)
        if handler is None:
            body = json.dumps({"error": "not found", "path": path}).encode("utf-8")
            self._respond(404, "application/json", body)
            return
        try:
            payload = handler(self.monitor)
            body = json.dumps(payload).encode("utf-8")
        except Exception as exc:  # pragma: no cover - defensive
            body = json.dumps({"error": f"{type(exc).__name__}: {exc}"}).encode("utf-8")
            self._respond(500, "application/json", body)
            return
        self._respond(200, "application/json", body)

    def _respond(self, code: int, content_type: str, body: bytes) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Cache-Control", "no-store")
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:
        """Silence per-request stderr logging; runs must own their stdout."""


class MonitorServer:
    """Background HTTP server exposing a monitor's live snapshot.

    ``port=0`` binds an ephemeral port (read it back via :attr:`port`), which
    is what tests use to avoid collisions.  The server thread is a daemon so a
    crashed run never hangs on shutdown, but call :meth:`stop` (or use the
    context-manager form) for an orderly close.
    """

    def __init__(self, monitor, host: str = "127.0.0.1", port: int = 0) -> None:
        handler = type(
            "_BoundMonitorRequestHandler", (_MonitorRequestHandler,), {"monitor": monitor}
        )
        self.monitor = monitor
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-monitor-http",
            daemon=True,
        )
        self._started = False

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the kernel's choice)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "MonitorServer":
        if not self._started:
            self._thread.start()
            self._started = True
        return self

    def stop(self) -> None:
        if self._started:
            self._httpd.shutdown()
            self._thread.join(timeout=5.0)
            self._started = False
        self._httpd.server_close()

    def __enter__(self) -> "MonitorServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


__all__ = ["MonitorServer", "DASHBOARD_HTML"]
