"""A client for the daemon's framed line protocol (docs/PROTOCOL.md):
every message is `<len> SP <payload> LF`."""

import socket


class Client:
    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.buf = b""

    def request(self, payload):
        b = payload.encode()
        self.sock.sendall(b"%d %s\n" % (len(b), b))
        return self.reply()

    def reply(self):
        while True:
            sp = self.buf.find(b" ")
            if sp > 0:
                n = int(self.buf[:sp])
                end = sp + 1 + n
                if len(self.buf) > end:
                    if self.buf[end:end + 1] != b"\n":
                        raise ValueError("framing: missing LF")
                    payload, self.buf = self.buf[sp + 1:end], self.buf[end + 1:]
                    return payload.decode()
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("daemon closed the connection")
            self.buf += chunk

    def close(self):
        self.sock.close()
