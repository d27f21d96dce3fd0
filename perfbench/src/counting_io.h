#pragma once

/**
 * @file
 * An Io (serve/io.h) that passes every call through to Io::system()
 * and counts the bytes and write() calls that went by, so the traced
 * run can report exact spool and journal sizes while the files, the
 * renames and the removals still happen on the real filesystem.
 */

#include <atomic>
#include <cstdint>
#include <string>

#include "serve/io.h"

namespace perfbench {

class CountingIo : public syscomm::serve::Io
{
  public:
    using IoFile = syscomm::serve::IoFile;

    IoFile* openWrite(const std::string& path, bool append,
                      std::string& error) override
    {
        return real().openWrite(path, append, error);
    }
    bool write(IoFile* file, const void* data, std::size_t len,
               std::string& error) override
    {
        written_ += len;
        ++writes_;
        return real().write(file, data, len, error);
    }
    bool flush(IoFile* file, std::string& error) override
    {
        return real().flush(file, error);
    }
    bool sync(IoFile* file, std::string& error) override
    {
        return real().sync(file, error);
    }
    void close(IoFile* file) override { real().close(file); }
    bool rename(const std::string& from, const std::string& to,
                std::string& error) override
    {
        return real().rename(from, to, error);
    }
    bool truncate(const std::string& path, std::uint64_t size,
                  std::string& error) override
    {
        return real().truncate(path, size, error);
    }
    bool remove(const std::string& path) override
    {
        return real().remove(path);
    }
    bool readFile(const std::string& path, std::string& out,
                  std::string& error) override
    {
        return real().readFile(path, out, error);
    }

    /** Bytes written through this Io so far. */
    std::uint64_t bytesWritten() const { return written_.load(); }
    /** write() calls so far (a sweep journal: header + one a record). */
    std::uint64_t writeCalls() const { return writes_.load(); }

  private:
    static Io& real() { return Io::system(); }

    std::atomic<std::uint64_t> written_{0};
    std::atomic<std::uint64_t> writes_{0};
};

} // namespace perfbench
