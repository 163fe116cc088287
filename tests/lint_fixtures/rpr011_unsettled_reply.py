"""RPR011 fixture: replies written by the serving core without the
role's settle() before them, next to the shape that must stay clean."""


def reply_without_settle(self, conn, response):
    # BAD: the commit behind this reply may still sit in the log buffer.
    wire.send_frame(conn, response)


def settle_after_the_reply(self, state, conn, replies):
    # BAD: the flush comes too late — the acks are already out.
    wire.send_frames(conn, replies)
    self.settle(state)


def settle_then_reply(self, state, conn, replies):
    # Guarded: whatever the replies reflect is durable before they leave.
    self.settle(state)
    wire.send_frames(conn, replies)
