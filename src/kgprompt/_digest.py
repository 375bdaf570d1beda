"""sha256 and blake2b from the interpreter's built-in hash modules.

``import hashlib`` loads OpenSSL's libcrypto through ``_hashlib``, about
3 MB of every process, and kgprompt needs OpenSSL for https alone. The
built-in modules give the same digests; ``hashlib`` is the fallback for an
interpreter built without them.
"""

try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256
try:
    from _blake2 import blake2b
except ImportError:
    from hashlib import blake2b
