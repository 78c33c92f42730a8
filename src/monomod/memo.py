"""The one cache policy for derived data.

An object that keeps derived data (an algebra, a module, a bimodule, a
triple) owns a dict `_cache`.  memo(fn) wraps a function whose first
argument is such an owner: the value for (fn, the other arguments) is
built on the first call and kept in the owner's `_cache`.  It is stored
with dict.setdefault, which is atomic, so when two threads miss at once
both build, and both get the value stored first; so does every later call.
The first stored value wins.

A value kept for a module or a triple must not refer back to it: that
would be a cycle, and the owner would live until the cyclic garbage
collector ran.  Functions whose result points at such an owner keep the
data it is made of and build a fresh view on it per call.  (An algebra's
regular modules and its opposite do point back at it.)

interned(fn) is the same policy with one table for the whole process
instead of an owner: the value for (fn, its arguments) is built on the
first call and kept until the process ends.  It is for the named
algebras of the gallery, so that everything memo keeps on such an algebra
is built once per process too.  A builder that raises stores nothing, and
a kept value is returned whatever the dimension cap is now.  The table
keeps only what was built whole: a builder that checks or stamps its
value does so before it returns.
"""

import functools


def memo(fn):
    """fn(owner, *args), built once per owner and arguments; the arguments
    are part of the key, so they must be hashable."""

    @functools.wraps(fn)
    def cached(owner, *args):
        key = (fn, args)
        try:
            return owner._cache[key]
        except KeyError:
            pass  # built outside the handler, so its errors chain to no KeyError
        return owner._cache.setdefault(key, fn(owner, *args))

    return cached


def remember(owner, cached, value, *args):
    """Keep value as what cached(owner, *args) returns, unless a value is
    kept already; returns the kept value.  cached is a memo-wrapped
    function, possibly wrapped again (every wrapper sets __wrapped__)."""
    fn = cached
    while hasattr(fn, "__wrapped__"):
        fn = fn.__wrapped__
    return owner._cache.setdefault((fn, args), value)


_interned = {}


def interned(fn):
    """fn(*args), built once per process and arguments; the arguments are
    the key, so they must be hashable, and a caller whose arguments have
    several spellings (a default left out, 2 or "2") passes one normal
    form."""

    @functools.wraps(fn)
    def kept(*args):
        key = (fn, args)
        try:
            return _interned[key]
        except KeyError:
            pass  # built outside the handler, so its errors chain to no KeyError
        return _interned.setdefault(key, fn(*args))

    return kept
