"""repro.obs.viewer — static HTML time-travel viewer for span traces.

:func:`render_html` turns a (raw or stitched) JSON-lines trace into a
single self-contained HTML file: no external scripts, stylesheets or
fonts, so the file can be committed, mailed, or opened from ``file://``
on an offline machine.  Two modes:

* **embedded** — the records are serialized into the page
  (``render_html(records)``); this is what ``repro-trace html`` emits;
* **file picker** — ``render_html(None)`` emits the same viewer with a
  drag-and-drop/file-input front door that reads any ``*.jsonl`` trace
  locally in the browser.

The page renders the stitched span tree as a flame/timeline view (one
lane per process, bars nested by depth, colored by process) and, when
the trace carries ``table_state`` events (``repro-analyze
--trace-states``), a time-travel panel that steps through the fixpoint
iteration by iteration: extension-table entries, the frontier that
changed in the pass, and the running widening count.

The JS qualifies raw records on the fly (the same rules as
:func:`repro.obs.trace.stitch`), so both raw multi-process sinks and
pre-stitched files render identically.
"""

from __future__ import annotations

import json
from typing import List, Optional

from .trace import stitch

#: Safety margin: traces beyond this many records are truncated in the
#: embedded page (the picker mode streams whatever the browser takes).
MAX_EMBEDDED_RECORDS = 200_000

_TEMPLATE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>__TITLE__</title>
<style>
  :root { color-scheme: dark; }
  body { margin: 0; font: 13px/1.45 ui-monospace, SFMono-Regular, Menlo,
         Consolas, monospace; background: #14161b; color: #d7dae0; }
  header { padding: 10px 16px; border-bottom: 1px solid #2a2e37;
           display: flex; gap: 16px; align-items: baseline; }
  header h1 { font-size: 15px; margin: 0; color: #e8eaf0; }
  header .meta { color: #8b93a3; }
  #picker { margin: 40px auto; max-width: 520px; padding: 32px;
            border: 2px dashed #3a4050; border-radius: 10px;
            text-align: center; color: #8b93a3; }
  #picker.drag { border-color: #6aa1ff; color: #d7dae0; }
  main { display: grid; grid-template-columns: 1fr 360px; gap: 0; }
  #timeline { overflow-x: auto; padding: 12px 16px; }
  .lane { margin-bottom: 10px; }
  .lane-label { color: #8b93a3; font-size: 11px; margin-bottom: 2px; }
  .track { position: relative; }
  .bar { position: absolute; height: 16px; border-radius: 3px;
         overflow: hidden; white-space: nowrap; font-size: 10px;
         line-height: 16px; padding: 0 4px; box-sizing: border-box;
         color: #0c0e12; cursor: pointer; }
  .bar.aborted { outline: 2px dashed #ff6b6b; color: #3b0d0d; }
  .bar:hover { filter: brightness(1.2); }
  .bar.selected { outline: 2px solid #fff; }
  .tick { position: absolute; top: 0; bottom: 0; width: 1px;
          background: #22262f; }
  .tick-label { position: absolute; top: -14px; font-size: 9px;
                color: #5b6372; }
  aside { border-left: 1px solid #2a2e37; padding: 12px 16px;
          max-height: calc(100vh - 46px); overflow-y: auto; }
  aside h2 { font-size: 12px; text-transform: uppercase;
             letter-spacing: .08em; color: #8b93a3; margin: 14px 0 6px; }
  #detail pre { white-space: pre-wrap; word-break: break-all;
                background: #1b1e25; padding: 8px; border-radius: 6px; }
  #stepper { display: flex; gap: 8px; align-items: center; }
  #stepper button { background: #262b36; color: #d7dae0;
                    border: 1px solid #3a4050; border-radius: 5px;
                    padding: 3px 10px; cursor: pointer; font: inherit; }
  #stepper button:disabled { opacity: .4; cursor: default; }
  #stepper input[type=range] { flex: 1; }
  table.state { border-collapse: collapse; width: 100%;
                font-size: 11px; }
  table.state td, table.state th { border-bottom: 1px solid #2a2e37;
                padding: 2px 6px; text-align: left; }
  tr.frontier td { background: #2b3a26; }
  tr.widened td:first-child::after { content: " ▲"; color: #ffb454; }
  .badge { display: inline-block; padding: 0 6px; border-radius: 8px;
           background: #262b36; color: #9fb3ff; margin-left: 6px; }
  .aborted-note { color: #ff6b6b; }
</style>
</head>
<body>
<header>
  <h1>__TITLE__</h1>
  <span class="meta" id="summary"></span>
</header>
<div id="picker" __PICKER_HIDDEN__>
  drop a JSON-lines trace here, or
  <input type="file" id="file" accept=".jsonl,.json,.txt">
</div>
<main id="app" hidden>
  <div id="timeline"></div>
  <aside>
    <h2>Span detail</h2>
    <div id="detail"><pre>click a span</pre></div>
    <h2>Fixpoint time travel</h2>
    <div id="stepper" hidden>
      <button id="prev">&#9664;</button>
      <input type="range" id="step" min="0" max="0" value="0">
      <button id="next">&#9654;</button>
      <span id="stepno"></span>
    </div>
    <div id="state"><em>no table_state events in this trace
      (analyze with --trace-states)</em></div>
  </aside>
</main>
<script id="trace-data" type="application/json">__DATA__</script>
<script>
"use strict";
// ---- record normalization (mirror of repro.obs.trace.stitch) -------
function qualify(proc, span) { return proc + ":" + span; }
function stitchRecords(raw) {
  const origin = {}; let haveOrigin = false;
  for (const r of raw) {
    if (r.epoch != null) {
      const p = r.process || "main";
      if (!(p in origin)) { origin[p] = r.epoch - r.ts; haveOrigin = true; }
    }
  }
  let base = Infinity;
  for (const p in origin) base = Math.min(base, origin[p]);
  if (!haveOrigin) base = 0;
  const out = [];
  for (const r of raw) {
    if (typeof r.span === "string") { out.push(r); continue; }
    const p = r.process || "main";
    const off = (p in origin ? origin[p] : base) - base;
    const rec = { ts: r.ts + off, kind: r.kind, name: r.name, process: p,
                  span: r.span == null ? null : qualify(p, r.span) };
    if (r.kind === "begin")
      rec.parent = r.parent != null ? qualify(p, r.parent)
                 : (r.parent_ref != null ? r.parent_ref : null);
    if (r.elapsed != null) rec.elapsed = r.elapsed;
    if (r.attrs) rec.attrs = r.attrs;
    if (r.trace) rec.trace = r.trace;
    out.push(rec);
  }
  out.sort((a, b) => a.ts - b.ts);
  return out;
}
// ---- span tree ------------------------------------------------------
function buildSpans(records) {
  const spans = new Map(); const events = [];
  for (const r of records) {
    if (r.kind === "begin") {
      spans.set(r.span, { id: r.span, name: r.name, process: r.process,
        parent: r.parent, start: r.ts, end: null, attrs: r.attrs || {},
        endAttrs: {}, aborted: false, children: [], events: [] });
    } else if (r.kind === "end") {
      const s = spans.get(r.span);
      if (s) { s.end = r.ts; s.endAttrs = r.attrs || {};
               s.aborted = !!(r.attrs && r.attrs.aborted); }
    } else if (r.kind === "event") {
      events.push(r);
      const s = spans.get(r.span);
      if (s) s.events.push(r);
    }
  }
  const roots = [];
  let maxTs = 0;
  for (const s of spans.values()) {
    if (s.end == null) { s.end = s.start; s.aborted = true; }
    maxTs = Math.max(maxTs, s.end);
    const p = s.parent != null ? spans.get(s.parent) : null;
    if (p) p.children.push(s); else roots.push(s);
  }
  return { spans, roots, events, maxTs };
}
// ---- rendering ------------------------------------------------------
const COLORS = ["#7dc4ff","#8ae39b","#ffd479","#ff9e9e","#c6a8ff",
                "#7fe0d4","#f0a8e0","#c9d47a"];
function colorOf(proc) {
  let h = 0;
  for (let i = 0; i < proc.length; i++) h = (h * 31 + proc.charCodeAt(i)) >>> 0;
  return COLORS[h % COLORS.length];
}
function depthOf(span, spans) {
  let d = 0, p = span.parent;
  const seen = new Set([span.id]);
  while (p != null && spans.has(p) && !seen.has(p)) {
    seen.add(p); d++; p = spans.get(p).parent;
  }
  return d;
}
function render(records) {
  const stitched = stitchRecords(records);
  const model = buildSpans(stitched);
  document.getElementById("picker").hidden = true;
  document.getElementById("app").hidden = false;
  const procs = [...new Set(stitched.map(r => r.process || "main"))];
  const aborted = [...model.spans.values()].filter(s => s.aborted).length;
  document.getElementById("summary").textContent =
    procs.length + " process(es) · " + model.spans.size + " spans (" +
    aborted + " aborted) · " + model.events.length + " events · " +
    model.roots.length + " root(s)";
  const timeline = document.getElementById("timeline");
  timeline.innerHTML = "";
  const span = Math.max(model.maxTs, 1e-6);
  const width = Math.max(900, timeline.clientWidth - 32);
  const scale = width / span;
  for (const proc of procs) {
    const lane = document.createElement("div"); lane.className = "lane";
    const label = document.createElement("div");
    label.className = "lane-label"; label.textContent = proc;
    lane.appendChild(label);
    const track = document.createElement("div"); track.className = "track";
    const laneSpans = [...model.spans.values()]
      .filter(s => s.process === proc);
    let maxDepth = 0;
    for (const s of laneSpans) {
      const d = depthOf(s, model.spans);
      maxDepth = Math.max(maxDepth, d);
      const bar = document.createElement("div");
      bar.className = "bar" + (s.aborted ? " aborted" : "");
      bar.style.left = (s.start * scale) + "px";
      bar.style.width = Math.max(3, (s.end - s.start) * scale) + "px";
      bar.style.top = (d * 19 + 14) + "px";
      bar.style.background = colorOf(proc);
      bar.textContent = s.name;
      bar.title = s.name + " (" + ((s.end - s.start) * 1000).toFixed(2) +
                  " ms)" + (s.aborted ? " — ABORTED" : "");
      bar.onclick = () => select(s, bar);
      track.appendChild(bar);
    }
    for (let t = 0; t <= 10; t++) {
      const tick = document.createElement("div"); tick.className = "tick";
      tick.style.left = (t / 10 * width) + "px";
      const lab = document.createElement("div"); lab.className = "tick-label";
      lab.style.left = tick.style.left;
      lab.textContent = (t / 10 * span * 1000).toFixed(1) + "ms";
      track.appendChild(lab); track.appendChild(tick);
    }
    track.style.height = ((maxDepth + 1) * 19 + 18) + "px";
    track.style.width = width + "px";
    lane.appendChild(track);
    timeline.appendChild(lane);
  }
  setupStepper(model.events);
}
let selected = null;
function select(s, bar) {
  if (selected) selected.classList.remove("selected");
  selected = bar; bar.classList.add("selected");
  const lines = {
    span: s.id, name: s.name, process: s.process, parent: s.parent,
    start_ms: +(s.start * 1000).toFixed(3),
    elapsed_ms: +((s.end - s.start) * 1000).toFixed(3),
    aborted: s.aborted, attrs: s.attrs, end_attrs: s.endAttrs,
    events: s.events.map(e => e.name + (e.attrs && e.attrs.pass_number != null
      ? " #" + e.attrs.pass_number : "")),
  };
  document.getElementById("detail").innerHTML =
    "<pre>" + escapeHtml(JSON.stringify(lines, null, 2)) + "</pre>" +
    (s.aborted ? "<div class='aborted-note'>span did not end cleanly" +
                 "</div>" : "");
}
function escapeHtml(text) {
  return text.replace(/&/g, "&amp;").replace(/</g, "&lt;");
}
// ---- fixpoint time travel -------------------------------------------
function setupStepper(events) {
  const states = events.filter(e => e.name === "table_state");
  const stepper = document.getElementById("stepper");
  if (!states.length) { stepper.hidden = true; return; }
  stepper.hidden = false;
  const slider = document.getElementById("step");
  slider.max = states.length - 1; slider.value = 0;
  const show = i => {
    i = Math.max(0, Math.min(states.length - 1, i));
    slider.value = i;
    document.getElementById("stepno").textContent =
      (i + 1) + "/" + states.length;
    const a = states[i].attrs || {};
    const st = a.state || {};
    let html = "<div>pass <b>" + (a.pass_number != null ? a.pass_number : "?") +
      "</b>" + (a.pattern ? " · " + escapeHtml(String(a.pattern)) : "") +
      "<span class='badge'>widenings " + (st.widenings || 0) + "</span>" +
      "<span class='badge'>changes " + (st.changes || 0) + "</span>" +
      "<span class='badge'>entries " + (st.size != null ? st.size : "?") +
      "</span></div>";
    html += "<table class='state'><tr><th>entry</th><th>success</th>" +
            "<th>upd</th></tr>";
    for (const e of (st.entries || [])) {
      const cls = (e.frontier ? "frontier" : "") +
                  (e.status !== "exact" ? " widened" : "");
      html += "<tr class='" + cls + "'><td>" + escapeHtml(e.key) + "</td>" +
        "<td>" + escapeHtml(String(e.success == null ? "⊥" : e.success)) +
        "</td><td>" + e.updates + "</td></tr>";
    }
    html += "</table>";
    if (st.truncated) html += "<div class='meta'>… " + st.truncated +
      " more entries truncated</div>";
    document.getElementById("state").innerHTML = html;
  };
  document.getElementById("prev").onclick = () => show(+slider.value - 1);
  document.getElementById("next").onclick = () => show(+slider.value + 1);
  slider.oninput = () => show(+slider.value);
  show(0);
}
// ---- boot -----------------------------------------------------------
function parseJsonl(text) {
  const records = [];
  for (const line of text.split("\\n")) {
    const t = line.trim();
    if (t) records.push(JSON.parse(t));
  }
  return records;
}
const embedded = document.getElementById("trace-data").textContent.trim();
if (embedded) {
  render(JSON.parse(embedded));
} else {
  const picker = document.getElementById("picker");
  const load = file => file.text().then(t => render(parseJsonl(t)));
  document.getElementById("file").onchange = e => load(e.target.files[0]);
  picker.ondragover = e => { e.preventDefault(); picker.classList.add("drag"); };
  picker.ondragleave = () => picker.classList.remove("drag");
  picker.ondrop = e => { e.preventDefault(); load(e.dataTransfer.files[0]); };
}
</script>
</body>
</html>
"""


def render_html(
    records: Optional[List[dict]],
    title: str = "repro trace",
    metrics=None,
) -> str:
    """The viewer page as a string.

    ``records`` embeds a trace (raw records are stitched first so the
    page carries the canonical form); ``None`` emits file-picker mode.
    ``metrics`` (an optional :class:`~repro.obs.MetricsRegistry`)
    accounts the render under ``viewer.*``.
    """
    if records is None:
        data = ""
        picker_hidden = ""
        embedded = 0
    else:
        stitched = stitch(records)
        if len(stitched) > MAX_EMBEDDED_RECORDS:
            stitched = stitched[:MAX_EMBEDDED_RECORDS]
        embedded = len(stitched)
        # "</" would close the carrier <script> tag early; JSON strings
        # tolerate the escaped solidus.
        data = json.dumps(stitched, sort_keys=True).replace("</", "<\\/")
        picker_hidden = "hidden"
    page = (
        _TEMPLATE
        .replace("__TITLE__", _escape(title))
        .replace("__PICKER_HIDDEN__", picker_hidden)
        .replace("__DATA__", data)
    )
    if metrics is not None:
        metrics.counter("viewer.renders").inc()
        metrics.gauge("viewer.embedded_records").set(embedded)
        metrics.gauge("viewer.html_bytes").set(len(page.encode("utf-8")))
    return page


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


__all__ = ["MAX_EMBEDDED_RECORDS", "render_html"]
