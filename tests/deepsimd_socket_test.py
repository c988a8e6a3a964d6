"""deepsimd over a Unix socket: a client that hangs up before its reply does
not end the daemon, a reply arrives while the client's write side is still
open, a client that stays idle does not hold up another client's replies,
and a quit op ends the daemon while the idle client is still connected.

    python3 tests/deepsimd_socket_test.py path/to/deepsimd
"""

import json
import os
import socket
import subprocess
import sys
import tempfile
import time


def connect(daemon, path):
    deadline = time.monotonic() + 30
    while daemon.poll() is None and time.monotonic() < deadline:
        client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            client.connect(path)
            return client
        except OSError:
            client.close()
            time.sleep(0.05)
    sys.exit("deepsimd is not listening")


def main(deepsimd):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "deepsimd.sock")
        daemon = subprocess.Popen([deepsimd, "--workers", "1", "--socket", path])
        try:
            with connect(daemon, path) as client:
                client.sendall(b'{"op":"run","spec":{"steps":30}}\n')
            with connect(daemon, path) as idle, connect(daemon, path) as client:
                client.settimeout(10)
                replies = client.makefile("r")
                client.sendall(b'{"op":"stats"}\n')
                stats = json.loads(replies.readline())  # write side still open
                assert "svc.cache_misses" in stats["stats"], stats
                client.sendall(b'{"op":"quit"}\n')
                assert json.loads(replies.readline()) == {"status": "ok"}
                assert daemon.wait(timeout=30) == 0  # `idle` is still open
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()
    print("socket replies beside an idle client, then quit: ok")


if __name__ == "__main__":
    main(sys.argv[1])
