from .cli import _process, main

if __name__ == "__main__":
    _process(main)
