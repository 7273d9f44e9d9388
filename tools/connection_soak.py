#!/usr/bin/env python3
"""Connection soak for ipass_serve: many short connections must leave the
daemon's live thread count and address space flat.

    ./build/ipass_serve --port 0 > serve.out &
    python3 tools/connection_soak.py --port PORT --pid $! --connections 100000

It first holds --warm connections open at once (default 32, the daemon's
connection cap), so every handler thread the cap allows exists.  It then
makes --connections sequential connections, each one health probe and a
close, and samples /proc/PID/status as it goes.  Exit status 1 if any probe
is not answered, the daemon's thread count ever rises above its post-warm-up
value, or its VmSize grows by more than --vm-slack-mb.
"""

import argparse
import json
import socket
import struct
import sys

HEALTH = json.dumps({"kind": "health"}).encode()


def proc_status(pid):
    fields = {}
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            key, _, value = line.partition(":")
            if key in ("Threads", "VmSize"):
                fields[key] = int(value.split()[0])
    return fields["Threads"], fields["VmSize"]


def recv_exact(sock, n):
    data = b""
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        if not chunk:
            raise ConnectionError("connection closed mid-frame")
        data += chunk
    return data


def connect(port):
    sock = socket.create_connection(("127.0.0.1", port))
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    # Close with a reset: 100k client-side TIME_WAIT sockets would run the
    # loopback out of ephemeral ports long before the server is stressed.
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    return sock


def probe(sock):
    sock.sendall(struct.pack(">I", len(HEALTH)) + HEALTH)
    (size,) = struct.unpack(">I", recv_exact(sock, 4))
    response = json.loads(recv_exact(sock, size))
    if response.get("status") != "ok":
        raise RuntimeError(f"health probe refused: {response}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--pid", type=int, required=True)
    parser.add_argument("--connections", type=int, default=100000)
    parser.add_argument("--warm", type=int, default=32)
    parser.add_argument("--sample-every", type=int, default=1000)
    parser.add_argument("--vm-slack-mb", type=int, default=16)
    args = parser.parse_args()

    held = [connect(args.port) for _ in range(args.warm)]
    for sock in held:
        probe(sock)
    for sock in held:
        sock.close()
    warm_threads, warm_vm_kb = proc_status(args.pid)

    peak_threads, peak_vm_kb = warm_threads, warm_vm_kb
    for i in range(args.connections):
        with connect(args.port) as sock:
            probe(sock)
        if i % args.sample_every == 0 or i == args.connections - 1:
            threads, vm_kb = proc_status(args.pid)
            peak_threads = max(peak_threads, threads)
            peak_vm_kb = max(peak_vm_kb, vm_kb)

    print(f"connection soak: {args.connections} connections; threads "
          f"{warm_threads} after warm-up, peak {peak_threads}; VmSize "
          f"{warm_vm_kb} kB after warm-up, peak {peak_vm_kb} kB")
    ok = (peak_threads <= warm_threads and
          peak_vm_kb <= warm_vm_kb + args.vm_slack_mb * 1024)
    if not ok:
        print("connection soak: FAILED (threads or VmSize grew)", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
