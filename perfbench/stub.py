"""Loopback OpenAI-compatible chat-completions stub for live-loopback.

Usage: python3 stub.py SCRIPTS_JSON DELAY_SECONDS

Serves ``POST /<round>/<equation>/<seed>/chat/completions`` from the
scripts file (keys ``<equation>/<seed>``), one response per request in
script order, after a fixed delay.  ``GET /stats`` returns the requests
served per round and, per cell path, a digest of every prompt received.
Binds 127.0.0.1 on a free port, prints the port on stdout, and exits
when its standard input closes.
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading
import time
from collections import defaultdict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


def prompt_digest(prompt: str) -> str:
    return hashlib.sha256(prompt.encode()).hexdigest()[:16]


class State:
    def __init__(self, scripts: dict, delay: float):
        self.scripts = scripts
        self.delay = delay
        self.lock = threading.Lock()
        self.prompts = defaultdict(list)
        self.served = defaultdict(int)


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Headers and body go out in separate writes; with Nagle on, the
    # client's delayed ACK would add ~40 ms to every reply.
    disable_nagle_algorithm = True
    state: State

    def _send(self, status: int, doc: dict):
        body = json.dumps(doc).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        if self.path != "/stats":
            self._send(404, {"error": "not found"})
            return
        with self.state.lock:
            doc = {"served": dict(self.state.served), "prompts": dict(self.state.prompts)}
        self._send(200, doc)

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        parts = self.path.strip("/").split("/")
        if len(parts) != 5 or parts[3:] != ["chat", "completions"]:
            self._send(404, {"error": "not found"})
            return
        round_tag, cell = parts[0], "/".join(parts[1:3])
        script = self.state.scripts.get(cell)
        if script is None:
            self._send(404, {"error": f"no script for {cell}"})
            return
        prompt = body["messages"][-1]["content"]
        time.sleep(self.state.delay)
        with self.state.lock:
            received = self.state.prompts[f"{round_tag}/{cell}"]
            index = len(received)
            received.append(prompt_digest(prompt))
            self.state.served[round_tag] += 1
        if index >= len(script):
            self._send(400, {"error": "script exhausted"})
            return
        text = script[index]
        self._send(200, {
            "object": "chat.completion",
            "model": body.get("model", ""),
            "choices": [{"index": 0, "finish_reason": "stop",
                         "message": {"role": "assistant", "content": text}}],
            "usage": {"prompt_tokens": len(prompt) // 4,
                      "completion_tokens": len(text) // 4,
                      "total_tokens": (len(prompt) + len(text)) // 4},
        })

    def log_message(self, *args):
        pass


def main(argv) -> int:
    with open(argv[1], encoding="utf-8") as fh:
        scripts = json.load(fh)
    Handler.state = State(scripts, float(argv[2]))
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    serving = threading.Thread(target=server.serve_forever)
    serving.start()
    print(server.server_address[1], flush=True)
    sys.stdin.read()
    server.shutdown()
    serving.join()
    server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
