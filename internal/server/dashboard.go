package server

import "net/http"

// handleDashboard serves the live campaign dashboard at / — one static,
// dependency-free HTML page. All data flows through the public API the
// page polls (/metrics, /api/v1/jobs) and subscribes to (the selected
// job's /events SSE feed); the server renders nothing job-specific here,
// so the page is a cacheable constant and the golden test can pin it.
func (s *Server) handleDashboard(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write([]byte(dashboardHTML))
}

// dashboardHTML is the whole dashboard: HTML, CSS and vanilla JS, no
// external assets. Detection/containment/quarantine/recovery rates and
// the react/recovery-latency percentiles render as inline SVG bars from
// the /aggregates snapshots the /events feed pushes while a job runs.
const dashboardHTML = `<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>mpsocd — campaign dashboard</title>
<style>
  body { font: 13px/1.45 ui-monospace, SFMono-Regular, Menlo, Consolas, monospace;
         margin: 0; background: #111418; color: #d6dbe1; }
  header { padding: 10px 16px; background: #191e24; border-bottom: 1px solid #2a323b;
           display: flex; align-items: baseline; gap: 16px; }
  header h1 { font-size: 15px; margin: 0; color: #e8edf2; }
  header .sub { color: #7d8a97; }
  main { display: grid; grid-template-columns: minmax(360px, 1fr) 2fr; gap: 16px; padding: 16px; }
  section { background: #171c21; border: 1px solid #252d36; border-radius: 6px; padding: 12px 14px; }
  h2 { font-size: 12px; text-transform: uppercase; letter-spacing: .08em;
       color: #8fa0b0; margin: 0 0 10px; }
  table { border-collapse: collapse; width: 100%; }
  th, td { text-align: left; padding: 3px 8px 3px 0; white-space: nowrap; }
  th { color: #7d8a97; font-weight: normal; }
  tr.job { cursor: pointer; }
  tr.job:hover td, tr.job.sel td { color: #ffffff; }
  tr.job.sel td:first-child { color: #6fd3a4; }
  .state-pending  { color: #c9b458; }
  .state-running  { color: #6fb3d3; }
  .state-done     { color: #6fd3a4; }
  .state-failed   { color: #d36f6f; }
  .state-canceled { color: #8d97a1; }
  .bars text { fill: #d6dbe1; font: 11px ui-monospace, monospace; }
  .bars .lbl { fill: #8fa0b0; }
  .muted { color: #7d8a97; }
  #detail .empty { color: #58626d; padding: 24px 0; text-align: center; }
  progress { width: 120px; height: 8px; accent-color: #6fb3d3; }
</style>
</head>
<body>
<header>
  <h1>mpsocd</h1>
  <span class="sub">distributed-security campaign service</span>
  <span class="sub" id="workers">workers –/–</span>
  <span class="sub" id="records">records 0</span>
  <span class="sub" id="sse"></span>
</header>
<main>
  <section>
    <h2>Jobs</h2>
    <table id="jobs">
      <thead><tr><th>id</th><th>kind</th><th>state</th><th>progress</th><th>records</th></tr></thead>
      <tbody></tbody>
    </table>
    <div class="muted" id="nojobs">no jobs submitted — POST a spec to /api/v1/jobs</div>
  </section>
  <section id="detail">
    <h2>Job detail <span class="muted" id="detail-id"></span></h2>
    <div class="empty" id="detail-empty">select a job</div>
    <div id="detail-body" style="display:none">
      <div id="rates"></div>
      <div id="dists"></div>
    </div>
  </section>
</main>
<script>
"use strict";
let selected = null, es = null;

function fmt(n) { return Number(n).toLocaleString("en-US"); }

function barSVG(rows, unit) {
  // rows: [{label, value (0..1 or cycles), text}] with values pre-scaled to 0..1
  const w = 560, bh = 18, gap = 8, lx = 170, bw = w - lx - 120;
  let svg = '<svg class="bars" width="' + w + '" height="' + (rows.length * (bh + gap)) + '">';
  rows.forEach((r, i) => {
    const y = i * (bh + gap);
    const len = Math.max(1, Math.round(bw * Math.min(1, r.frac)));
    svg += '<text class="lbl" x="0" y="' + (y + 13) + '">' + r.label + '</text>';
    svg += '<rect x="' + lx + '" y="' + y + '" width="' + len + '" height="' + bh +
           '" rx="2" fill="' + (r.color || "#6fb3d3") + '"/>';
    svg += '<text x="' + (lx + len + 6) + '" y="' + (y + 13) + '">' + r.text + '</text>';
  });
  return svg + "</svg>";
}

function renderAgg(payload) {
  const a = payload.aggregates || {};
  const rates = document.getElementById("rates");
  const dists = document.getElementById("dists");
  if (a.kind === "campaign") {
    rates.innerHTML = "<h2>rates over " + fmt(a.runs) + " runs (" + fmt(a.errors) + " errors)</h2>" +
      barSVG([
        { label: "detection",   frac: a.detection_rate,   text: (100 * a.detection_rate).toFixed(1) + "%", color: "#6fb3d3" },
        { label: "containment", frac: a.containment_rate, text: (100 * a.containment_rate).toFixed(1) + "%", color: "#6fd3a4" },
        { label: "quarantine",  frac: a.quarantine_rate,  text: (100 * a.quarantine_rate).toFixed(1) + "%", color: "#c9b458" },
        { label: "recovery",    frac: a.recovery_rate,    text: (100 * a.recovery_rate).toFixed(1) + "%", color: "#b08fd3" },
      ]);
    const ds = [
      ["detect latency (cy)",    a.detect_latency],
      ["react latency (cy)",     a.react_latency],
      ["quarantined (cy)",       a.quarantined_cycles],
      ["recovery (cy)",          a.recovery_cycles],
      ["slowdown (milli)",       a.slowdown_milli],
    ].filter(d => d[1] && d[1].count > 0);
    dists.innerHTML = "<h2>latency percentiles</h2>" + ds.map(([name, d]) => {
      const max = Math.max(1, d.max);
      return "<div class='muted'>" + name + " — n=" + fmt(d.count) + "</div>" + barSVG([
        { label: "p50", frac: d.p50 / max, text: fmt(d.p50) },
        { label: "p90", frac: d.p90 / max, text: fmt(d.p90) },
        { label: "p99", frac: d.p99 / max, text: fmt(d.p99), color: "#d36f6f" },
      ]);
    }).join("");
  } else if (a.kind === "sweep") {
    rates.innerHTML = "<h2>sweep over " + fmt(a.runs) + " runs (" + fmt(a.errors) +
      " errors, " + fmt(a.alerts) + " alerts)</h2>";
    const ds = [
      ["cycles",        a.cycles],
      ["instructions",  a.instructions],
      ["stall cycles",  a.stall_cycles],
      ["bus util (milli)", a.bus_utilization_milli],
    ].filter(d => d[1] && d[1].count > 0);
    dists.innerHTML = ds.map(([name, d]) => {
      const max = Math.max(1, d.max);
      return "<div class='muted'>" + name + " — n=" + fmt(d.count) + "</div>" + barSVG([
        { label: "p50", frac: d.p50 / max, text: fmt(d.p50) },
        { label: "p90", frac: d.p90 / max, text: fmt(d.p90) },
        { label: "p99", frac: d.p99 / max, text: fmt(d.p99), color: "#d36f6f" },
      ]);
    }).join("");
  } else {
    rates.innerHTML = "<div class='muted'>no aggregates yet</div>";
    dists.innerHTML = "";
  }
}

function select(id) {
  selected = id;
  document.getElementById("detail-id").textContent = id;
  document.getElementById("detail-empty").style.display = "none";
  document.getElementById("detail-body").style.display = "block";
  if (es) { es.close(); es = null; }
  fetch("/api/v1/jobs/" + id + "/aggregates").then(r => r.json()).then(renderAgg);
  es = new EventSource("/api/v1/jobs/" + id + "/events");
  es.addEventListener("snapshot", e => renderAgg(JSON.parse(e.data)));
  es.addEventListener("state", () => refresh());
  es.onerror = () => { if (es) { es.close(); es = null; } };
}

function refresh() {
  fetch("/metrics").then(r => r.json()).then(m => {
    document.getElementById("workers").textContent =
      "workers " + m.workers.busy + "/" + m.workers.capacity;
    document.getElementById("records").textContent = "records " + fmt(m.records_computed);
    document.getElementById("sse").textContent =
      m.sse.subscribers > 0 ? "subscribers " + m.sse.subscribers : "";
  });
  fetch("/api/v1/jobs").then(r => r.json()).then(jobs => {
    document.getElementById("nojobs").style.display = jobs.length ? "none" : "block";
    const tb = document.querySelector("#jobs tbody");
    tb.innerHTML = jobs.map(j => {
      const pct = j.grid_size ? Math.min(100, Math.round(100 * j.records / j.grid_size)) : 0;
      return "<tr class='job" + (j.id === selected ? " sel" : "") + "' data-id='" + j.id + "'>" +
        "<td>" + j.id + "</td><td>" + j.kind + "</td>" +
        "<td class='state-" + j.state + "'>" + j.state + "</td>" +
        "<td><progress max='100' value='" + pct + "'></progress> " + pct + "%</td>" +
        "<td>" + fmt(j.records) + "/" + fmt(j.grid_size) + "</td></tr>";
    }).join("");
    tb.querySelectorAll("tr.job").forEach(tr =>
      tr.addEventListener("click", () => select(tr.dataset.id)));
  });
}

refresh();
setInterval(refresh, 2000);
</script>
</body>
</html>
`
