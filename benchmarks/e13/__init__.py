"""E13 "where the time goes": the repo's benchmark (see README.md in this directory).

Everything here measures ``src/repro`` strictly from outside: it imports only
``repro.*`` and the standard library, and no file outside this directory
changes when it runs.
"""
